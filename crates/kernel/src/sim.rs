//! The simulation run loop.
//!
//! Processes run on their own cores: each round grants every runnable
//! process one quantum of cycles, then wall-clock simulated time advances
//! by that quantum. Policy ticks (background daemon work) and metric
//! sampling happen on their configured periods.

use crate::config::KernelConfig;
use crate::machine::{Machine, OutOfMemory};
use crate::policy::{HugePagePolicy, Steering};
use crate::process::{OpCursor, Process};
use crate::workload::{MemOp, Workload};
use hawkeye_mem::{Pfn, PhysMemory};
use hawkeye_metrics::{Cycles, Subsystem};
use hawkeye_tlb::{AccessOutcome, Mmu};
use hawkeye_trace::TraceEvent;
use hawkeye_vm::{PageSize, Translation, Vpn};

/// Interposer on the touch path, invoked once per page touch after
/// translation. The virtualization layer uses this to model the host side
/// of two-level translation: EPT faults on first access to a
/// guest-physical frame, copy-on-write on KSM-merged pages, swap-ins, and
/// the extra nested-walk cost when the host maps the frame with base
/// pages.
///
/// A hook is lent to one round ([`Simulator::round_with`]) and never
/// stored, so it may borrow what it models (the virtualization layer's
/// host) and needs no `Send` bound.
pub trait AccessHook {
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
    policy: Box<dyn HugePagePolicy>,
    next_tick: Cycles,
    next_sample: Cycles,
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

/// One process's quantum in progress: what it runs against (the machine,
/// the policy, the round's lent hook) and what it has used so far. The
/// op and touch executors are its methods.
struct Quantum<'m, 'h> {
    machine: &'m mut Machine,
    policy: &'m mut dyn HugePagePolicy,
    /// When present, sees every touch (streaks are not batched).
    hook: Option<&'h mut dyn AccessHook>,
    pid: u32,
    /// The quantum's length: no touch starts once `spent ≥ len`.
    len: Cycles,
    /// Cycles used so far.
    spent: Cycles,
    ledger: CpuLedger,
}

/// Why [`Quantum::touch_slice`] stopped.
#[derive(Clone, Copy)]
enum SliceStop {
    /// The op's end, or the quantum is used up: the caller's loop head
    /// handles both.
    Yield,
    /// The next page needs a fault; nothing was done for it yet.
    Fault,
    /// The touch just made, which translated to this, is followed by a
    /// guaranteed-L1-hit streak for [`Quantum::charge_streak`].
    Streak(Translation),
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
            policy,
            next_tick,
            next_sample,
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
        self.policy.name().to_string()
    }

    /// Spawns a process running `workload`.
    pub fn spawn(&mut self, workload: Box<dyn Workload>) -> u32 {
        self.machine.spawn(workload)
    }

    /// Applies an external steering decision to the installed policy
    /// (fleet hook API). Call at quantum boundaries only — between
    /// [`Simulator::run_for`] slices — never mid-run.
    pub fn steer(&mut self, s: &Steering) {
        self.policy.on_steer(&mut self.machine, s);
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
        self.policy.on_exit(&mut self.machine, pid);
    }

    /// Balloons `pages` pages out of `pid` starting at `start`
    /// (`madvise(DONTNEED)` driven by the host, not the guest), notifying
    /// the policy's release hook. Returns the simulated cost charged.
    pub fn balloon(&mut self, pid: u32, start: Vpn, pages: u64) -> Cycles {
        let cost = self.machine.madvise_dontneed(pid, start, pages);
        self.policy.on_release(&mut self.machine, pid, start, pages);
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
        self.round_with(None)
    }

    /// [`Simulator::round`] with `hook` lent for the round: it sees every
    /// page touch of every process, one call per touch.
    pub fn round_with(&mut self, mut hook: Option<&mut dyn AccessHook>) -> bool {
        let pids = self.machine.running_pids();
        if pids.is_empty() {
            return false;
        }
        let quantum = self.machine.config().quantum;
        for pid in pids {
            let hook = hook.as_mut().map(|h| &mut **h as &mut dyn AccessHook);
            self.step_process(pid, quantum, hook);
        }
        // Drain walk durations batched during the quantum into the
        // registry (additive merge — readers see exactly what per-walk
        // observation would have produced, without its per-touch cost).
        self.machine.mmu_mut().flush_metrics();
        self.machine.advance(quantum);
        let now = self.machine.now();
        if now >= self.next_tick {
            self.policy.on_tick(&mut self.machine);
            self.next_tick += self.machine.config().tick_period;
        }
        let sample_period = self.machine.config().sample_period;
        if sample_period > Cycles::ZERO && now >= self.next_sample {
            self.machine.sample_metrics();
            self.next_sample += sample_period;
        }
        self.quanta += 1;
        crate::sched_stats::count_quantum();
        true
    }

    /// Runs one process for (up to) a quantum of its own CPU.
    fn step_process(&mut self, pid: u32, quantum: Cycles, hook: Option<&mut dyn AccessHook>) {
        let base_now = self.machine.now();
        let mut q = Quantum {
            machine: &mut self.machine,
            policy: &mut *self.policy,
            hook,
            pid,
            len: quantum,
            spent: Cycles::ZERO,
            ledger: CpuLedger::default(),
        };
        let mut finished = false;
        let mut oom = false;
        while q.spent < quantum {
            let cursor = {
                let p = q.machine.process_mut(pid).expect("running process");
                match p.pending.take() {
                    Some(c) => Some(c),
                    None => p.next_op().map(|op| OpCursor { op, progress: 0 }),
                }
            };
            let Some(cursor) = cursor else {
                finished = true;
                break;
            };
            match q.exec_slice(cursor) {
                Ok(Some(rest)) => {
                    q.machine.process_mut(pid).expect("exists").pending = Some(rest);
                }
                Ok(None) => {}
                Err(OutOfMemory) => {
                    finished = true;
                    oom = true;
                    break;
                }
            }
        }
        let (spent, ledger) = (q.spent, q.ledger);
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
            self.policy.on_exit(&mut self.machine, pid);
        }
    }
}

impl Quantum<'_, '_> {
    /// Executes (part of) one op; returns the remaining cursor when the
    /// quantum expires mid-op.
    fn exec_slice(&mut self, mut cursor: OpCursor) -> Result<Option<OpCursor>, OutOfMemory> {
        let pid = self.pid;
        let syscall_cost = Cycles::from_nanos(500);
        match &cursor.op {
            MemOp::Mmap { start, pages, kind } => {
                let p = self.machine.process_mut(pid).expect("exists");
                p.space_mut().mmap(*start, *pages, *kind).expect("workload mmap is valid");
                self.spent += syscall_cost;
                self.ledger.fault += syscall_cost;
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
                    self.spent += self.machine.madvise_dontneed(pid, s, pages) + syscall_cost;
                    self.ledger.fault += syscall_cost;
                    let p = self.machine.process_mut(pid).expect("exists");
                    let _ = p.space_mut().munmap(s);
                    self.policy.on_release(self.machine, pid, s, pages);
                }
                Ok(None)
            }
            MemOp::Madvise { start, pages } => {
                let (start, pages) = (*start, *pages);
                self.spent += self.machine.madvise_dontneed(pid, start, pages) + syscall_cost;
                self.ledger.fault += syscall_cost;
                self.policy.on_release(self.machine, pid, start, pages);
                Ok(None)
            }
            MemOp::Compute { cycles } => {
                let total = Cycles::new(*cycles);
                let done = Cycles::new(cursor.progress);
                let left = total.saturating_sub(done);
                let room = self.len.saturating_sub(self.spent);
                if left <= room {
                    self.spent += left;
                    self.ledger.idle += left;
                    Ok(None)
                } else {
                    self.spent += room;
                    self.ledger.idle += room;
                    cursor.progress += room.get();
                    Ok(Some(cursor))
                }
            }
            MemOp::Touch { vpn, write, repeats, think } => {
                let (vpn, write, repeats, think) = (*vpn, *write, *repeats, *think);
                self.touch_page(vpn, write, repeats, think)?;
                Ok(None)
            }
            MemOp::TouchRange { start, pages, write, think, stride, repeats } => {
                let (start, pages, write, think, stride, repeats) =
                    (*start, *pages, *write, *think, (*stride).max(1), (*repeats).max(1));
                let fast = self.fast_path_on() && stride == 1;
                let page = |i: u64| Vpn(start.0 + i * stride);
                // A huge touch with more of the range ahead starts a streak.
                let streak = |next: u64, tr: &Translation| fast && tr.size == PageSize::Huge && next < pages;
                let mut i = cursor.progress;
                while i < pages {
                    if self.spent >= self.len {
                        cursor.progress = i;
                        return Ok(Some(cursor));
                    }
                    let Some(tr) = self.touches(&mut i, pages, page, streak, write, repeats, think)? else {
                        continue;
                    };
                    if streak(i, &tr) {
                        // The rest of this huge region is resident behind
                        // the L1 entry the touch above just used: charge
                        // the guaranteed-hit streak in closed form.
                        let vpn = page(i - 1);
                        let max = (pages - i).min(511 - vpn.huge_offset());
                        i += self.charge_streak(
                            StreakShape::Consecutive { after: vpn, region_pfn: Pfn(tr.pfn.0 - vpn.huge_offset()) },
                            write,
                            repeats,
                            think,
                            max,
                        );
                    }
                }
                Ok(None)
            }
            MemOp::TouchList { vpns, write, think } => {
                let (write, think) = (*write, *think);
                let fast = self.fast_path_on();
                let page = |j: u64| vpns[j as usize];
                // Later list entries guaranteed to hit the same L1 entry:
                // repeats of this page, or (for a huge mapping) any page of
                // the same region.
                let hits_entry = |v: &Vpn, vpn: Vpn, tr: &Translation| match tr.size {
                    PageSize::Huge => v.hvpn() == vpn.hvpn(),
                    PageSize::Base => *v == vpn,
                };
                let streak = |next: u64, tr: &Translation| {
                    fast && vpns.get(next as usize).is_some_and(|v| hits_entry(v, page(next - 1), tr))
                };
                let mut i = cursor.progress;
                while i < vpns.len() as u64 {
                    if self.spent >= self.len {
                        cursor.progress = i;
                        return Ok(Some(cursor));
                    }
                    let Some(tr) = self.touches(&mut i, vpns.len() as u64, page, streak, write, 1, think)? else {
                        continue;
                    };
                    if streak(i, &tr) {
                        let vpn = page(i - 1);
                        let rest = &vpns[i as usize..];
                        let run = rest.iter().take_while(|v| hits_entry(v, vpn, &tr)).count() as u64;
                        let region_pfn = match tr.size {
                            PageSize::Huge => Pfn(tr.pfn.0 - vpn.huge_offset()),
                            PageSize::Base => tr.pfn,
                        };
                        i += self.charge_streak(
                            StreakShape::Listed { vpns: rest, size: tr.size, region_pfn },
                            write,
                            1,
                            think,
                            run,
                        );
                    }
                }
                Ok(None)
            }
        }
    }

    /// Runs the next touches of a `TouchRange` or `TouchList` op, from
    /// page index `*i` of `end`, and advances `*i` past them. With the
    /// fast path on, [`Quantum::touch_slice`] runs as many as it can;
    /// a page that needs a fault, and every page with the fast path off,
    /// goes through [`Quantum::touch_page`] alone. Returns the last
    /// touch's translation, after which the caller checks for a streak,
    /// or `None` when the op's end or the quantum stopped the slice.
    #[allow(clippy::too_many_arguments)]
    fn touches(
        &mut self,
        i: &mut u64,
        end: u64,
        page: impl Fn(u64) -> Vpn,
        streak_after: impl Fn(u64, &Translation) -> bool,
        write: bool,
        repeats: u32,
        think: u32,
    ) -> Result<Option<Translation>, OutOfMemory> {
        if self.fast_path_on() {
            match self.touch_slice(i, end, &page, streak_after, write, repeats, think) {
                SliceStop::Yield => return Ok(None),
                SliceStop::Streak(tr) => return Ok(Some(tr)),
                SliceStop::Fault => {}
            }
        }
        let tr = self.touch_page(page(*i), write, repeats, think)?;
        *i += 1;
        Ok(Some(tr))
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
    fn charge_streak(&mut self, shape: StreakShape<'_>, write: bool, repeats: u32, think: u32, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        let (p, mmu, pm, config) = self.machine.touch_parts(self.pid).expect("exists");
        let c_touch = (config.costs.access + Cycles::new(think as u64)) * repeats as u64;
        let n = if c_touch > Cycles::ZERO {
            let room = self.len.saturating_sub(self.spent);
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
        if !mmu.record_l1_hits(self.pid, probe_vpn, size, n) {
            return 0;
        }
        self.spent += c_touch * n;
        self.ledger.idle += c_touch * n;
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

    /// One page touch: [`Quantum::touch_mapped`] (translation with TLB
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
    fn touch_page(&mut self, vpn: Vpn, write: bool, repeats: u32, think: u32) -> Result<Translation, OutOfMemory> {
        let pid = self.pid;
        let repeats = repeats.max(1);
        let mut guard = 0;
        loop {
            if let Some(tr) = self.touch_mapped(vpn, write, repeats, think) {
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
                let action = self.policy.on_fault(self.machine, pid, vpn);
                self.machine.map_fault(pid, vpn, action)?
            };
            self.spent += fault_cost;
            let p = self.machine.process_mut(pid).expect("exists");
            let st = p.stats_mut();
            st.faults += 1;
            if huge {
                st.huge_faults += 1;
            }
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
    /// zero-COW): one process lookup serves [`touch_body`], the access
    /// hook and the stats update. Returns `None` — with no state change
    /// beyond the side-effect-free failed translation — when a fault is
    /// needed; [`Quantum::touch_page`] takes it and retries.
    fn touch_mapped(&mut self, vpn: Vpn, write: bool, repeats: u32, think: u32) -> Option<Translation> {
        let pid = self.pid;
        let (p, mmu, pm, config) = self.machine.touch_parts(pid).expect("running process");
        let (translation, out) = touch_body(p, mmu, pm, pid, vpn, write)?;
        let compute = (config.costs.access + Cycles::new(think as u64)) * repeats as u64;
        self.spent += out.cycles + compute;
        self.ledger.walk += out.cycles;
        self.ledger.idle += compute;
        if let Some(hook) = self.hook.as_mut() {
            let hook_cost =
                hook.on_touch(pid, vpn, translation.pfn, translation.size, write, out.walk_cycles);
            self.spent += hook_cost;
            self.ledger.fault += hook_cost;
        }
        let st = p.stats_mut();
        st.touches += 1;
        st.accesses += repeats as u64;
        Some(translation)
    }

    /// Executes touches of one op back to back, from page index `*i` of
    /// `end`, advancing `*i` past them (fast path, no hook). The
    /// process, MMU and memory are borrowed once, and the cycle, ledger
    /// and stats updates are summed in locals and applied once. Each
    /// touch is [`touch_body`], exactly as [`Quantum::touch_mapped`]
    /// runs it. Stops at the op's end, before a touch when
    /// `spent ≥ quantum` (the per-touch loop's check), at the first page
    /// that needs a fault, or after a touch for which
    /// `streak_after(next index, translation)` holds, so the caller can
    /// charge the streak as the per-touch loop would. Nothing observes
    /// the process, MMU or memory between two of these touches (no
    /// policy, hook or trace event runs), so deferring the summed updates
    /// is exact.
    #[allow(clippy::too_many_arguments)]
    fn touch_slice(
        &mut self,
        i: &mut u64,
        end: u64,
        page: impl Fn(u64) -> Vpn,
        streak_after: impl Fn(u64, &Translation) -> bool,
        write: bool,
        repeats: u32,
        think: u32,
    ) -> SliceStop {
        let (pid, quantum) = (self.pid, self.len);
        let (p, mmu, pm, config) = self.machine.touch_parts(pid).expect("running process");
        let compute = (config.costs.access + Cycles::new(think as u64)) * repeats as u64;
        let (mut now, mut walk, mut touches) = (self.spent, Cycles::ZERO, 0u64);
        let stop = loop {
            if *i >= end || now >= quantum {
                break SliceStop::Yield;
            }
            let Some((tr, out)) = touch_body(p, mmu, pm, pid, page(*i), write) else {
                break SliceStop::Fault;
            };
            now += out.cycles + compute;
            walk += out.cycles;
            touches += 1;
            *i += 1;
            if streak_after(*i, &tr) {
                break SliceStop::Streak(tr);
            }
        };
        self.spent = now;
        self.ledger.walk += walk;
        self.ledger.idle += compute * touches;
        let st = p.stats_mut();
        st.touches += touches;
        st.accesses += repeats as u64 * touches;
        stop
    }
}

/// The body of one touch of a mapped page: translate (setting the
/// accessed and dirty bits), model the access's TLB timing, and on a
/// write dirty the frame with the workload's next dirt draw. The one copy
/// shared by [`Quantum::touch_mapped`] and [`Quantum::touch_slice`],
/// so both make the page-table, TLB and dirt-RNG calls in the same order.
/// Returns `None`, changing nothing, when the touch needs a fault.
#[inline(always)]
fn touch_body(
    p: &mut Process,
    mmu: &mut Mmu,
    pm: &mut PhysMemory,
    pid: u32,
    vpn: Vpn,
    write: bool,
) -> Option<(Translation, AccessOutcome)> {
    let translation = p.space_mut().access(vpn, write)?;
    let out = mmu.access(pid, vpn, translation.size, write);
    if write && !translation.zero_cow {
        let dirt = p.dirt_offset();
        pm.frame_mut(translation.pfn).set_content(hawkeye_mem::PageContent::non_zero(dirt));
    }
    Some((translation, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasePagesOnly, FaultAction};
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
    }

    /// Counts the touches it is lent for.
    struct CountingHook(u64);
    impl AccessHook for CountingHook {
        fn on_touch(&mut self, _: u32, _: Vpn, _: Pfn, _: PageSize, _: bool, _: Cycles) -> Cycles {
            self.0 += 1;
            Cycles::ZERO
        }
    }

    #[test]
    fn hooked_rounds_run_touch_by_touch() {
        // A huge-page range and a list revisiting one huge region: without
        // a hook, the fast path runs both as guaranteed-hit streaks.
        let workload = || {
            script(
                "streaks",
                vec![
                    MemOp::Mmap { start: Vpn(0), pages: 2048, kind: VmaKind::Anon },
                    MemOp::TouchRange { start: Vpn(0), pages: 2048, write: true, think: 10, stride: 1, repeats: 1 },
                    MemOp::TouchList { vpns: (0..3000).map(|i| Vpn(i % 7)).collect(), write: true, think: 10 },
                ],
            )
        };
        let mut hooked = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let pid = hooked.spawn(workload());
        let mut hook = CountingHook(0);
        while hooked.round_with(Some(&mut hook)) {}
        let mut cfg = KernelConfig::small();
        cfg.fast_path = false;
        let mut reference = Simulator::new(cfg, Box::new(AlwaysHuge));
        reference.spawn(workload());
        while reference.round() {}

        let (h, r) = (hooked.machine(), reference.machine());
        let stats = h.process(pid).unwrap().stats();
        assert_eq!(stats.touches, 2048 + 3000);
        assert_eq!(hook.0, stats.touches, "the hook sees every touch");
        assert_eq!(stats, r.process(pid).unwrap().stats(), "proc stats");
        assert_eq!(h.process(pid).unwrap().cpu_time(), r.process(pid).unwrap().cpu_time());
        assert_eq!(h.mmu().lifetime(pid), r.mmu().lifetime(pid), "pmu counters");
        assert_eq!(h.stats(), r.stats(), "kernel stats");
    }

    /// What reports read of a process after it exits.
    #[derive(Debug, PartialEq)]
    struct Kept {
        name: String,
        stats: crate::ProcStats,
        cpu_time: Cycles,
        oom: bool,
        pmu: hawkeye_tlb::PmuWindow,
    }

    fn kept(sim: &Simulator, pid: u32) -> Kept {
        let p = sim.machine().process(pid).expect("exists");
        Kept {
            name: p.name().to_string(),
            stats: p.stats(),
            cpu_time: p.cpu_time(),
            oom: p.is_oom(),
            pmu: sim.machine().mmu().lifetime(pid),
        }
    }

    fn mapped_regions(sim: &Simulator, pid: u32) -> usize {
        let p = sim.machine().process(pid).expect("exists");
        p.space().page_table().mapped_regions().count()
    }

    /// Asserts `pid` has exited holding no address space and no generator.
    fn assert_released(sim: &mut Simulator, pid: u32) {
        assert_eq!(sim.machine().process(pid).unwrap().space().vmas().count(), 0);
        assert_eq!(mapped_regions(sim, pid), 0);
        let p = sim.machine.process_mut(pid).unwrap();
        assert!(p.is_finished());
        assert!(p.pending.is_none());
        assert!(p.next_op().is_none(), "the generator is gone");
    }

    /// Two huge regions, written.
    fn two_regions() -> Vec<MemOp> {
        vec![
            MemOp::Mmap { start: Vpn(0), pages: 1024, kind: VmaKind::Anon },
            MemOp::TouchRange { start: Vpn(0), pages: 1024, write: true, think: 10, stride: 1, repeats: 1 },
        ]
    }

    #[test]
    fn natural_exit_keeps_only_statistics() {
        // Size a trailing compute op so the ops end exactly at the first
        // quantum's boundary: the second round then finds no op and exits
        // spending nothing, so the state after round one is the state
        // just before exit.
        let q = KernelConfig::small().quantum;
        let mut probe = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let probe_pid = probe.spawn(script("probe", two_regions()));
        probe.run();
        let t = probe.machine().process(probe_pid).unwrap().cpu_time();
        assert!(t < q, "the regions fit in one quantum");
        let mut ops = two_regions();
        ops.push(MemOp::Compute { cycles: (q - t).get() });
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let pid = sim.spawn(script("exact", ops));
        assert!(sim.round());
        assert!(!sim.machine().process(pid).unwrap().is_finished());
        assert_eq!(mapped_regions(&sim, pid), 2);
        let before = kept(&sim, pid);
        assert_eq!(before.cpu_time, q);
        assert!(sim.round(), "the exit round");
        assert_released(&mut sim, pid);
        assert_eq!(kept(&sim, pid), before);
        assert_eq!(sim.machine().process(pid).unwrap().finish_time(), Some(q));
        assert!(!sim.round(), "nothing left to run");
    }

    #[test]
    fn kill_keeps_only_statistics() {
        // Killed mid-op with an op still queued behind it.
        let mut ops = two_regions();
        ops.push(MemOp::Compute { cycles: u64::MAX / 2 });
        ops.push(MemOp::Compute { cycles: 1 });
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let pid = sim.spawn(script("victim", ops));
        assert!(sim.round() && sim.round());
        assert!(sim.machine.process(pid).unwrap().pending.is_some());
        assert_eq!(mapped_regions(&sim, pid), 2);
        let before = kept(&sim, pid);
        sim.kill(pid);
        assert_released(&mut sim, pid);
        assert_eq!(kept(&sim, pid), before);
        assert_eq!(sim.machine().process(pid).unwrap().finish_time(), Some(sim.machine().now()));
        assert_eq!(sim.machine().pm().allocated_pages(), 1, "just the zero page");
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
