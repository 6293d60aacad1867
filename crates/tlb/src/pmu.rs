//! Performance-monitoring counters (Table 4 methodology).
//!
//! The paper measures MMU overhead as
//! `(DTLB_LOAD_MISSES_WALK_DURATION + DTLB_STORE_MISSES_WALK_DURATION) *
//! 100 / CPU_CLK_UNHALTED`. The simulator keeps exactly those counters per
//! process: walk durations are charged by the [`crate::Mmu`]; unhalted
//! cycles are charged by the kernel as a process executes.
//!
//! HawkEye-PMU samples a *window* (recent overhead) rather than lifetime
//! totals, so counters support snapshot-and-reset windows.

use hawkeye_metrics::{Cycles, LogHistogram, MetricsSink};
use hawkeye_trace::{TraceEvent, TraceSink};

/// One process's counter set.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    load_walk: Cycles,
    store_walk: Cycles,
    unhalted: Cycles,
    walks: u64,
}

/// A snapshot of one measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PmuWindow {
    /// `DTLB_LOAD_MISSES_WALK_DURATION` for the window.
    pub load_walk: Cycles,
    /// `DTLB_STORE_MISSES_WALK_DURATION` for the window.
    pub store_walk: Cycles,
    /// `CPU_CLK_UNHALTED` for the window.
    pub unhalted: Cycles,
    /// Page walks observed.
    pub walks: u64,
}

impl PmuWindow {
    /// MMU overhead per Table 4, as a fraction (0.0–1.0). Returns 0 for an
    /// empty window.
    pub fn mmu_overhead(&self) -> f64 {
        if self.unhalted == Cycles::ZERO {
            return 0.0;
        }
        (self.load_walk + self.store_walk).get() as f64 / self.unhalted.get() as f64
    }

    /// Folds another counter set into this one. Every PMU counter is
    /// additive, so merging per-core (or per-pid) windows is exactly the
    /// counter file a single shared PMU would have recorded — this is
    /// how multi-core machines assemble per-core views from per-process
    /// counters (and how they would fold per-core files back into a
    /// machine-wide one).
    pub fn merge(&mut self, other: &PmuWindow) {
        self.load_walk += other.load_walk;
        self.store_walk += other.store_walk;
        self.unhalted += other.unhalted;
        self.walks += other.walks;
    }
}

/// Per-process performance counters.
///
/// # Examples
///
/// ```
/// use hawkeye_tlb::Pmu;
/// use hawkeye_metrics::Cycles;
///
/// let mut pmu = Pmu::new();
/// pmu.record_walk(1, Cycles::new(300), false);
/// pmu.record_unhalted(1, Cycles::new(1000));
/// assert!((pmu.lifetime(1).mmu_overhead() - 0.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pmu {
    /// Per-pid counter rows, sorted by pid: lifetime and current-window
    /// counters side by side, so a charge finds both with one scan. A
    /// handful of processes run per machine, so an inline sorted Vec
    /// beats a tree. A pid has a row from its first charge until
    /// [`Pmu::remove`]; sampling a window zeroes the row's window half.
    rows: Vec<(u32, Row)>,
    /// Event journal handle; disabled (no-op) unless a trace scope attaches.
    trace: TraceSink,
    /// Cycle-attribution handle; feeds the per-walk duration histogram.
    metrics: MetricsSink,
    /// Walk durations accumulated since the last [`Pmu::flush_metrics`].
    /// Observing into the shared registry costs a lock and two map
    /// lookups per walk — far too much for the per-touch path — so walks
    /// land here and merge into `walk_cycles` once per quantum. Merging
    /// is exactly equivalent to per-walk observation (all histogram state
    /// is additive), so registry readers see identical values.
    pending_walks: LogHistogram,
}

/// One pid's counters.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    lifetime: Counters,
    window: Counters,
}

/// `table[pid]`, inserting zeroed counters at the sorted position when
/// absent.
#[inline]
fn entry(table: &mut Vec<(u32, Row)>, pid: u32) -> &mut Row {
    match table.iter().position(|(p, _)| *p >= pid) {
        Some(i) if table[i].0 == pid => &mut table[i].1,
        Some(i) => {
            table.insert(i, (pid, Row::default()));
            &mut table[i].1
        }
        None => {
            table.push((pid, Row::default()));
            &mut table.last_mut().expect("just pushed").1
        }
    }
}

impl Pmu {
    /// Creates an empty counter file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the event-journal sink used for `QuantumEnd` snapshots.
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Install the cycle-attribution sink feeding the `walk_cycles`
    /// per-walk duration histogram.
    pub fn set_metrics_sink(&mut self, metrics: MetricsSink) {
        self.metrics = metrics;
    }

    /// Charges a page-walk duration to `pid` (`store` selects the store
    /// counter, mirroring the two Table 4 events).
    pub fn record_walk(&mut self, pid: u32, duration: Cycles, store: bool) {
        let row = entry(&mut self.rows, pid);
        for c in [&mut row.lifetime, &mut row.window] {
            if store {
                c.store_walk += duration;
            } else {
                c.load_walk += duration;
            }
            c.walks += 1;
        }
        self.pending_walks.observe(duration.get());
    }

    /// Merges the walk durations accumulated since the last flush into
    /// the registry's `walk_cycles` histogram. The simulator calls this
    /// once per quantum (and at run-loop exit); anything reading the
    /// registry afterwards sees exactly what per-walk observation would
    /// have produced.
    pub fn flush_metrics(&mut self) {
        if self.pending_walks.count() > 0 {
            self.metrics.merge_hist("walk_cycles", &self.pending_walks);
            self.pending_walks = LogHistogram::new();
        }
    }

    /// Charges executed cycles (`CPU_CLK_UNHALTED`) to `pid`.
    pub fn record_unhalted(&mut self, pid: u32, cycles: Cycles) {
        let row = entry(&mut self.rows, pid);
        row.lifetime.unhalted += cycles;
        row.window.unhalted += cycles;
    }

    /// Lifetime counters for `pid` (zeroes if never seen).
    pub fn lifetime(&self, pid: u32) -> PmuWindow {
        self.row(pid).map(|r| Self::to_window(&r.lifetime)).unwrap_or_default()
    }

    /// Current-window counters for `pid` without resetting.
    pub fn window(&self, pid: u32) -> PmuWindow {
        self.row(pid).map(|r| Self::to_window(&r.window)).unwrap_or_default()
    }

    /// Returns the current window for `pid` and starts a new one —
    /// HawkEye-PMU's periodic sampling.
    pub fn sample_window(&mut self, pid: u32) -> PmuWindow {
        let w = match self.rows.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, r)) => Self::to_window(&std::mem::take(&mut r.window)),
            None => PmuWindow::default(),
        };
        self.trace.emit(
            pid,
            TraceEvent::QuantumEnd {
                load_walk: w.load_walk.get(),
                store_walk: w.store_walk.get(),
                unhalted: w.unhalted.get(),
                walks: w.walks,
            },
        );
        w
    }

    /// Drops all state for an exited process.
    pub fn remove(&mut self, pid: u32) {
        self.rows.retain(|(p, _)| *p != pid);
    }

    /// All pids with lifetime counters, ascending.
    pub fn pids(&self) -> Vec<u32> {
        self.rows.iter().map(|(p, _)| *p).collect()
    }

    fn row(&self, pid: u32) -> Option<&Row> {
        self.rows.iter().find(|(p, _)| *p == pid).map(|(_, r)| r)
    }

    fn to_window(c: &Counters) -> PmuWindow {
        PmuWindow { load_walk: c.load_walk, store_walk: c.store_walk, unhalted: c.unhalted, walks: c.walks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_formula_matches_table4() {
        let mut pmu = Pmu::new();
        pmu.record_walk(3, Cycles::new(100), false);
        pmu.record_walk(3, Cycles::new(50), true);
        pmu.record_unhalted(3, Cycles::new(1000));
        let w = pmu.lifetime(3);
        assert_eq!(w.walks, 2);
        // (C1 + C2) / C3 = 150/1000
        assert!((w.mmu_overhead() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn window_resets_but_lifetime_accumulates() {
        let mut pmu = Pmu::new();
        pmu.record_walk(1, Cycles::new(10), false);
        pmu.record_unhalted(1, Cycles::new(100));
        let w1 = pmu.sample_window(1);
        assert!((w1.mmu_overhead() - 0.1).abs() < 1e-12);
        // New window is empty.
        assert_eq!(pmu.window(1), PmuWindow::default());
        pmu.record_walk(1, Cycles::new(90), true);
        pmu.record_unhalted(1, Cycles::new(100));
        let w2 = pmu.sample_window(1);
        assert!((w2.mmu_overhead() - 0.9).abs() < 1e-12);
        // Lifetime saw everything.
        assert!((pmu.lifetime(1).mmu_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive_and_partition_independent() {
        let mut pmu = Pmu::new();
        pmu.record_walk(1, Cycles::new(100), false);
        pmu.record_unhalted(1, Cycles::new(1000));
        pmu.record_walk(2, Cycles::new(50), true);
        pmu.record_unhalted(2, Cycles::new(500));
        pmu.record_walk(3, Cycles::new(25), false);
        pmu.record_unhalted(3, Cycles::new(250));
        // Merge per-pid counters in two different groupings (cores
        // {1,2}+{3} vs {1}+{2,3}); the machine-wide fold must agree.
        let fold = |groups: &[&[u32]]| {
            let mut total = PmuWindow::default();
            for g in groups {
                let mut core = PmuWindow::default();
                for pid in *g {
                    core.merge(&pmu.lifetime(*pid));
                }
                total.merge(&core);
            }
            total
        };
        let a = fold(&[&[1, 2], &[3]]);
        let b = fold(&[&[1], &[2, 3]]);
        assert_eq!(a, b);
        assert_eq!(a.walks, 3);
        assert_eq!(a.unhalted, Cycles::new(1750));
        assert!((a.mmu_overhead() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unknown_pid_reads_zero() {
        let pmu = Pmu::new();
        assert_eq!(pmu.lifetime(42).mmu_overhead(), 0.0);
        assert_eq!(pmu.window(42).walks, 0);
    }

    #[test]
    fn sampling_keeps_the_pid_and_zeroes_only_its_window() {
        let mut pmu = Pmu::new();
        pmu.record_walk(1, Cycles::new(10), true);
        pmu.record_walk(2, Cycles::new(20), false);
        let w = pmu.sample_window(1);
        assert_eq!((w.store_walk, w.walks), (Cycles::new(10), 1));
        assert_eq!(pmu.pids(), vec![1, 2]);
        assert_eq!(pmu.window(1), PmuWindow::default());
        assert_eq!(pmu.lifetime(1).store_walk, Cycles::new(10));
        assert_eq!(pmu.window(2).load_walk, Cycles::new(20));
        // An unknown pid samples as an empty window and gains no row.
        assert_eq!(pmu.sample_window(9), PmuWindow::default());
        assert_eq!(pmu.pids(), vec![1, 2]);
    }

    #[test]
    fn remove_clears_state() {
        let mut pmu = Pmu::new();
        pmu.record_unhalted(1, Cycles::new(5));
        assert_eq!(pmu.pids(), vec![1]);
        pmu.remove(1);
        assert!(pmu.pids().is_empty());
    }
}
