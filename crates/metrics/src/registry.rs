//! The cycle-attribution registry: named counters, gauges, and
//! log-bucketed histograms with a zero-cost disabled path.
//!
//! The paper's whole argument is an accounting one — MMU overhead is walk
//! cycles over `CPU_CLK_UNHALTED` (Table 4), and HawkEye's wins come from
//! *where* kernel cycles are spent (async pre-zeroing §3.1 vs. synchronous
//! zeroing, access-bit scans §3.4, promotion copies). The registry makes
//! that attribution exact: every charge to the simulated clock is tagged
//! with a [`Subsystem`], and per machine the CPU-side tags sum to the
//! unhalted counter ([`UNHALTED`]) — asserted in tests and checked by the
//! `hawkeye-analyze` residue pass.
//!
//! Wiring mirrors the trace layer (`hawkeye-trace`): emit sites hold a
//! cheap cloneable [`MetricsSink`] that early-returns on one branch when no
//! registry scope is active, so instrumentation can never perturb the
//! simulation (the registry-drift test pins this). Scoping is per-thread:
//! the bench scenario engine calls [`scope::begin`] before a scenario and
//! [`scope::end`] after; machines created inside the scope attach via
//! [`MetricsSink::attach_current`] and get per-scope machine ids in
//! creation order, keeping snapshots deterministic at any worker count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::LogHistogram;
use crate::time::Cycles;

/// Counter name for `CPU_CLK_UNHALTED`: every cycle a process executes,
/// recorded once per scheduler quantum. The per-subsystem CPU ledger
/// ([`Subsystem::cpu_key`]) must sum exactly to this counter.
pub const UNHALTED: &str = "cycles.unhalted";

/// Where a simulated cycle went. One tag per charge to the clock.
///
/// The same taxonomy covers both ledgers:
/// * the **CPU ledger** (`cycles.cpu.*`) — cycles inside a process's
///   scheduler quantum, summing to [`UNHALTED`];
/// * the **daemon ledger** (`cycles.daemon.*`) — background kernel work
///   (khugepaged, kcompactd, the pre-zero thread), summing to the
///   kernel's `daemon_cycles` stat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// TLB-miss translation work: page walks plus L2-TLB lookup cycles.
    Walk,
    /// Fault handling and page-table maintenance: fault handlers, COW
    /// breaks, syscall entry, munmap/madvise bookkeeping, huge-page
    /// splits (demotion is a PTE rewrite).
    Fault,
    /// Page zeroing, synchronous (fault path) or asynchronous (§3.1).
    Zero,
    /// Page copies: promotion collapses and compaction migrations charge
    /// their copy portion here.
    Copy,
    /// Content scans: bloat-recovery zero-byte scans (§3.2).
    Scan,
    /// Compaction passes (migration bookkeeping).
    Compact,
    /// Zero-page de-duplication beyond the scan: demote + remap work.
    Dedup,
    /// Application compute: think time, in-core accesses, spin loops.
    Idle,
}

impl Subsystem {
    /// All subsystems, in report order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Walk,
        Subsystem::Fault,
        Subsystem::Zero,
        Subsystem::Copy,
        Subsystem::Scan,
        Subsystem::Compact,
        Subsystem::Dedup,
        Subsystem::Idle,
    ];

    /// Stable lower-case tag.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Walk => "walk",
            Subsystem::Fault => "fault",
            Subsystem::Zero => "zero",
            Subsystem::Copy => "copy",
            Subsystem::Scan => "scan",
            Subsystem::Compact => "compact",
            Subsystem::Dedup => "dedup",
            Subsystem::Idle => "idle",
        }
    }

    /// CPU-ledger counter name (`cycles.cpu.<tag>`).
    pub fn cpu_key(self) -> &'static str {
        match self {
            Subsystem::Walk => "cycles.cpu.walk",
            Subsystem::Fault => "cycles.cpu.fault",
            Subsystem::Zero => "cycles.cpu.zero",
            Subsystem::Copy => "cycles.cpu.copy",
            Subsystem::Scan => "cycles.cpu.scan",
            Subsystem::Compact => "cycles.cpu.compact",
            Subsystem::Dedup => "cycles.cpu.dedup",
            Subsystem::Idle => "cycles.cpu.idle",
        }
    }

    /// Daemon-ledger counter name (`cycles.daemon.<tag>`).
    pub fn daemon_key(self) -> &'static str {
        match self {
            Subsystem::Walk => "cycles.daemon.walk",
            Subsystem::Fault => "cycles.daemon.fault",
            Subsystem::Zero => "cycles.daemon.zero",
            Subsystem::Copy => "cycles.daemon.copy",
            Subsystem::Scan => "cycles.daemon.scan",
            Subsystem::Compact => "cycles.daemon.compact",
            Subsystem::Dedup => "cycles.daemon.dedup",
            Subsystem::Idle => "cycles.daemon.idle",
        }
    }
}

/// One machine's metrics: counters, gauges, and histograms, all keyed by
/// stable static names (BTreeMaps, so iteration — and hence every report —
/// is deterministic).
#[derive(Debug, Clone, Default)]
pub struct MachineMetrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl MachineMetrics {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Sets gauge `name` to its latest value.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Merges a locally-accumulated histogram into histogram `name`.
    /// Equivalent to observing every value in `h` individually — the
    /// bucket counts, count, sum, min and max are all additive — so hot
    /// paths can batch observations outside the registry lock.
    pub fn merge_hist(&mut self, name: &'static str, h: &LogHistogram) {
        self.hists.entry(name).or_default().merge(h);
    }

    /// Counter value (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// CPU-ledger cycles tagged `sub`.
    pub fn cpu_cycles(&self, sub: Subsystem) -> u64 {
        self.counter(sub.cpu_key())
    }

    /// Daemon-ledger cycles tagged `sub`.
    pub fn daemon_cycles(&self, sub: Subsystem) -> u64 {
        self.counter(sub.daemon_key())
    }

    /// Sum of the CPU ledger across all subsystems.
    pub fn cpu_total(&self) -> u64 {
        Subsystem::ALL.iter().map(|s| self.cpu_cycles(*s)).sum()
    }

    /// Sum of the daemon ledger across all subsystems.
    pub fn daemon_total(&self) -> u64 {
        Subsystem::ALL.iter().map(|s| self.daemon_cycles(*s)).sum()
    }

    /// The `CPU_CLK_UNHALTED` counter.
    pub fn unhalted(&self) -> u64 {
        self.counter(UNHALTED)
    }

    /// Unattributed CPU cycles: `unhalted − Σ cycles.cpu.*`. Exactly 0 for
    /// any machine driven by the simulator scheduler; machines driven by
    /// custom harnesses (the virtualization host) never record unhalted
    /// cycles and report a negative residue, which checks skip.
    pub fn residue(&self) -> i128 {
        self.unhalted() as i128 - self.cpu_total() as i128
    }
}

/// The per-scope registry: one [`MachineMetrics`] per machine, keyed by the
/// per-scope machine id (creation order).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    machines: BTreeMap<u32, MachineMetrics>,
    next_machine: u32,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_machine_id(&mut self) -> u32 {
        let id = self.next_machine;
        self.next_machine += 1;
        self.machines.entry(id).or_default();
        id
    }

    /// Metrics of machine `id`, if it attached.
    pub fn machine(&self, id: u32) -> Option<&MachineMetrics> {
        self.machines.get(&id)
    }

    /// Mutable metrics of machine `id`, creating the slot if that machine
    /// never attached. The scenario engine posts engine-level counters
    /// (e.g. `trace.dropped_events` when a journal ring overflowed) here
    /// after a run, outside any instrumented scope.
    pub fn machine_entry(&mut self, id: u32) -> &mut MachineMetrics {
        self.machines.entry(id).or_default()
    }

    /// All machines in id (creation) order.
    pub fn machines(&self) -> impl Iterator<Item = (u32, &MachineMetrics)> + '_ {
        self.machines.iter().map(|(k, v)| (*k, v))
    }

    /// Number of machines that attached to the scope.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when no machine attached.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }
}

/// Cheap cloneable charge handle. Disabled sinks (the default) are a
/// no-op: every method early-returns on one branch, so instrumented code
/// runs identically whether or not a registry scope is active.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    shared: Option<Arc<Mutex<Registry>>>,
    machine: u32,
}

impl MetricsSink {
    /// A permanently-disabled sink.
    pub fn disabled() -> Self {
        MetricsSink::default()
    }

    /// Attach to the current thread's registry scope, if one is active,
    /// claiming the next machine id in that scope. Returns a disabled
    /// sink otherwise.
    pub fn attach_current() -> Self {
        match scope::current() {
            Some(shared) => {
                let machine = match shared.lock() {
                    Ok(mut reg) => reg.next_machine_id(),
                    Err(_) => return MetricsSink::disabled(),
                };
                MetricsSink { shared: Some(shared), machine }
            }
            None => MetricsSink::disabled(),
        }
    }

    /// True when charges reach a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// This sink's per-scope machine id (0 when disabled). Matches the
    /// trace layer's machine ids when both scopes wrap the same run.
    pub fn machine_id(&self) -> u32 {
        self.machine
    }

    fn with(&self, f: impl FnOnce(&mut MachineMetrics)) {
        let Some(shared) = &self.shared else { return };
        if let Ok(mut reg) = shared.lock() {
            f(reg.machines.entry(self.machine).or_default());
        }
    }

    /// Adds `v` to counter `name`. No-op when disabled or `v == 0`.
    #[inline]
    pub fn add(&self, name: &'static str, v: u64) {
        if self.shared.is_none() || v == 0 {
            return;
        }
        self.with(|m| m.add(name, v));
    }

    /// Sets gauge `name`. No-op when disabled.
    #[inline]
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if self.shared.is_none() {
            return;
        }
        self.with(|m| m.set_gauge(name, v));
    }

    /// Records one histogram observation. No-op when disabled.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        if self.shared.is_none() {
            return;
        }
        self.with(|m| m.observe(name, v));
    }

    /// Merges a batch of observations (see [`MachineMetrics::merge_hist`]).
    /// No-op when disabled or `h` is empty.
    #[inline]
    pub fn merge_hist(&self, name: &'static str, h: &LogHistogram) {
        if self.shared.is_none() || h.count() == 0 {
            return;
        }
        self.with(|m| m.merge_hist(name, h));
    }

    /// Charges `c` cycles to the CPU ledger under `sub`. No-op when
    /// disabled or `c` is zero.
    #[inline]
    pub fn charge_cpu(&self, sub: Subsystem, c: Cycles) {
        self.add(sub.cpu_key(), c.get());
    }

    /// Charges `c` cycles to the daemon ledger under `sub`. No-op when
    /// disabled or `c` is zero.
    #[inline]
    pub fn charge_daemon(&self, sub: Subsystem, c: Cycles) {
        self.add(sub.daemon_key(), c.get());
    }

    /// A copy of this machine's metrics (None when disabled) — the
    /// `CycleSample` trace event reads its payload from here.
    pub fn snapshot(&self) -> Option<MachineMetrics> {
        let shared = self.shared.as_ref()?;
        let reg = shared.lock().ok()?;
        Some(reg.machines.get(&self.machine).cloned().unwrap_or_default())
    }
}

/// Per-thread registry scopes, mirroring `hawkeye_trace::scope`. A scope
/// owns the registry that sinks created on this thread (between `begin`
/// and `end`) charge into.
pub mod scope {
    use super::{Arc, Mutex, RefCell, Registry};

    thread_local! {
        static CURRENT: RefCell<Option<Arc<Mutex<Registry>>>> =
            const { RefCell::new(None) };
    }

    /// Open a registry scope on this thread. Replaces any previous scope
    /// (its registry is discarded).
    pub fn begin() {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Arc::new(Mutex::new(Registry::new())));
        });
    }

    /// Close this thread's scope, returning its registry. Sinks still
    /// holding the registry keep writing into a drained one, harmlessly.
    pub fn end() -> Option<Registry> {
        let shared = CURRENT.with(|c| c.borrow_mut().take())?;
        let mut reg = shared.lock().ok()?;
        Some(std::mem::take(&mut *reg))
    }

    /// Detach this thread's scope *without* draining it: the shared
    /// registry is returned and sinks already attached to it keep
    /// charging into it. Long-lived owners (the fleet orchestrator) use
    /// this to keep a machine's registry alive beyond the `begin`/`end`
    /// bracket of its creating thread; reading happens later through the
    /// sink's `snapshot` or the returned handle.
    pub fn detach() -> Option<Arc<Mutex<Registry>>> {
        CURRENT.with(|c| c.borrow_mut().take())
    }

    /// True when a scope is open on this thread.
    pub fn active() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    pub(super) fn current() -> Option<Arc<Mutex<Registry>>> {
        CURRENT.with(|c| c.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_keys_are_stable() {
        assert_eq!(Subsystem::Walk.cpu_key(), "cycles.cpu.walk");
        assert_eq!(Subsystem::Idle.daemon_key(), "cycles.daemon.idle");
        assert_eq!(Subsystem::ALL.len(), 8);
        for s in Subsystem::ALL {
            assert!(s.cpu_key().ends_with(s.name()));
            assert!(s.daemon_key().ends_with(s.name()));
        }
    }

    #[test]
    fn disabled_sink_is_noop() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        sink.add("x", 5);
        sink.set_gauge("g", 1.0);
        sink.observe("h", 7);
        sink.charge_cpu(Subsystem::Walk, Cycles::new(100));
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn attach_outside_scope_is_disabled() {
        assert!(!scope::active());
        let sink = MetricsSink::attach_current();
        assert!(!sink.is_enabled());
        assert!(scope::end().is_none());
    }

    #[test]
    fn scope_roundtrip_collects_charges() {
        scope::begin();
        assert!(scope::active());
        let a = MetricsSink::attach_current();
        let b = MetricsSink::attach_current();
        assert_eq!(a.machine_id(), 0);
        assert_eq!(b.machine_id(), 1);
        a.charge_cpu(Subsystem::Walk, Cycles::new(300));
        a.charge_cpu(Subsystem::Idle, Cycles::new(700));
        a.add(UNHALTED, 1000);
        a.observe("fault_cycles", 42);
        b.charge_daemon(Subsystem::Zero, Cycles::new(55));
        b.set_gauge("mem.utilization", 0.5);
        let reg = scope::end().expect("registry");
        assert!(!scope::active());
        assert_eq!(reg.len(), 2);
        let ma = reg.machine(0).expect("machine 0");
        assert_eq!(ma.cpu_total(), 1000);
        assert_eq!(ma.unhalted(), 1000);
        assert_eq!(ma.residue(), 0);
        assert_eq!(ma.hist("fault_cycles").expect("hist").count(), 1);
        let mb = reg.machine(1).expect("machine 1");
        assert_eq!(mb.daemon_total(), 55);
        assert_eq!(mb.daemon_cycles(Subsystem::Zero), 55);
        assert_eq!(mb.gauge("mem.utilization"), Some(0.5));
        // Stale sinks keep working after the scope closed.
        a.add(UNHALTED, 1);
        assert!(scope::end().is_none());
    }

    #[test]
    fn zero_charges_do_not_create_keys() {
        scope::begin();
        let sink = MetricsSink::attach_current();
        sink.charge_cpu(Subsystem::Walk, Cycles::ZERO);
        sink.add("nothing", 0);
        let reg = scope::end().expect("registry");
        let m = reg.machine(0).expect("attached");
        assert_eq!(m.counters().count(), 0, "zero charges must leave no trace");
    }
}
