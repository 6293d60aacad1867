//! Simulated processes.
//!
//! A [`Process`] owns its address space (VMAs and page table) and its
//! workload generator while it runs. Exit ([`crate::Machine::exit_process`])
//! frees its frames and then releases both: an exited process keeps only
//! what reports read after it is gone — pid, name, [`ProcStats`], CPU
//! time, finish time and the OOM flag (its PMU rows live in the MMU and
//! survive too). Its space is a fresh, empty [`AddressSpace`] and
//! `next_op` yields nothing.

use crate::workload::{MemOp, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_vm::AddressSpace;

/// Per-process statistics (the rows of the paper's Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStats {
    /// Page faults taken (both sizes). Every trip through the fault loop
    /// counts: a write that lands on a zero-COW mapping is a fault like
    /// any other, so `cow_faults` (and `huge_faults`) are subsets of this
    /// total — a single touch can contribute two faults when the policy
    /// maps a region zero-COW and the write must immediately break it.
    pub faults: u64,
    /// Huge-page faults among them.
    pub huge_faults: u64,
    /// Copy-on-write faults among them (zero-page de-dup write-backs).
    pub cow_faults: u64,
    /// Total cycles spent inside the fault handler.
    pub fault_cycles: Cycles,
    /// Page touches executed.
    pub touches: u64,
    /// Memory accesses (touches × repeats).
    pub accesses: u64,
}

/// Execution state of one simulated process.
///
/// Processes run on their own core: each scheduler round grants a quantum,
/// and the process's [`Process::cpu_time`] tracks consumed cycles (equal to
/// wall-clock sim time while the process is runnable).
pub struct Process {
    pid: u32,
    name: String,
    space: AddressSpace,
    /// The generator; `None` once the process has exited.
    workload: Option<Box<dyn Workload>>,
    pub(crate) pending: Option<OpCursor>,
    cpu_time: Cycles,
    finished: bool,
    finish_time: Option<Cycles>,
    oom: bool,
    stats: ProcStats,
}

/// Partial progress through a sliced operation.
#[derive(Debug, Clone)]
pub(crate) struct OpCursor {
    pub(crate) op: MemOp,
    pub(crate) progress: u64,
}

impl Process {
    pub(crate) fn new(pid: u32, workload: Box<dyn Workload>) -> Self {
        Process {
            pid,
            name: workload.name().to_string(),
            space: AddressSpace::new(),
            workload: Some(workload),
            pending: None,
            cpu_time: Cycles::ZERO,
            finished: false,
            finish_time: None,
            oom: false,
            stats: ProcStats::default(),
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process's address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable address space (used by the machine and policies).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// CPU time consumed so far.
    pub fn cpu_time(&self) -> Cycles {
        self.cpu_time
    }

    pub(crate) fn charge(&mut self, c: Cycles) {
        self.cpu_time += c;
    }

    /// Whether the workload has completed (or hit OOM).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Wall-clock simulated instant of completion.
    pub fn finish_time(&self) -> Option<Cycles> {
        self.finish_time
    }

    /// Whether the process died of an out-of-memory condition.
    pub fn is_oom(&self) -> bool {
        self.oom
    }

    pub(crate) fn mark_finished(&mut self, at: Cycles, oom: bool) {
        self.finished = true;
        self.finish_time = Some(at);
        self.oom = oom;
    }

    /// Per-process statistics.
    pub fn stats(&self) -> ProcStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ProcStats {
        &mut self.stats
    }

    /// Drops the address space (VMA map, page-table arena and index), the
    /// generator and any half-done op. The machine calls this at exit,
    /// after it has unmapped every area and freed the frames.
    pub(crate) fn release(&mut self) {
        debug_assert_eq!(self.space.rss_pages(), 0, "pid {} exits with mappings", self.pid);
        self.space = AddressSpace::new();
        self.workload = None;
        self.pending = None;
    }

    pub(crate) fn next_op(&mut self) -> Option<MemOp> {
        self.workload.as_mut()?.next_op()
    }

    pub(crate) fn dirt_offset(&mut self) -> u16 {
        self.workload.as_mut().expect("an exited process touches no memory").dirt_offset()
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("cpu_time", &self.cpu_time)
            .field("finished", &self.finished)
            .field("oom", &self.oom)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::script;

    #[test]
    fn lifecycle() {
        let mut p = Process::new(7, script("w", vec![]));
        assert_eq!(p.pid(), 7);
        assert_eq!(p.name(), "w");
        assert!(!p.is_finished());
        p.charge(Cycles::new(100));
        assert_eq!(p.cpu_time().get(), 100);
        p.mark_finished(Cycles::new(500), false);
        assert!(p.is_finished());
        assert!(!p.is_oom());
        assert_eq!(p.finish_time(), Some(Cycles::new(500)));
        assert!(format!("{p:?}").contains("pid"));
    }

    #[test]
    fn oom_marking() {
        let mut p = Process::new(1, script("w", vec![]));
        p.mark_finished(Cycles::new(1), true);
        assert!(p.is_oom());
    }
}
