//! Multi-core contention: the per-core access plan and its deterministic
//! replay.
//!
//! One simulated [`crate::Machine`] stays a serial discrete-event
//! simulation — that is what keeps every aggregate counter (faults,
//! promotions, touched pages, allocation totals) pinned exactly across
//! core counts. What a multi-core machine *adds* is an account of where
//! cores would have collided: every state transition the paper's kernel
//! takes under a page lock (map, promote, demote, collapse, dedup) and
//! every allocator trip is recorded, as it happens, into a per-core
//! **access plan**:
//!
//! * app operations (faults, COW breaks, madvise) land on the faulting
//!   process's home core (`pid % app_cores`);
//! * promotion/demotion/dedup/compaction land on the khugepaged core;
//! * pre-zeroing lands on the pre-zero daemon core.
//!
//! With `cores = N`, the last two cores host the daemons and the rest run
//! app processes (at `N = 2` both daemons share core 1), so daemons
//! genuinely contend with app cores for the same page-state locks and
//! allocator shards — the paper's "one core scans while others fault"
//! story.
//!
//! The plan is replayed once, deterministically, at the end of each run
//! call: a discrete-event interleaving over per-core virtual clocks.
//! Cores advance in (virtual time, core id) order; an op on a resource
//! another core still holds stalls until the holder's release and charges
//! one CAS retry per backoff window. Its outputs — the `lock.*` registry
//! counters, the retry/hold histograms, and the
//! [`TraceEvent::Contention`] journal events — are exact functions of the
//! plan, so they are bit-reproducible for a fixed core count (and absent
//! entirely at `cores = 1`).

use hawkeye_metrics::{Cycles, LogHistogram, MetricsSink};
use hawkeye_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;

/// Hard cap on simulated cores (also the registry's per-core key count).
pub const MAX_CORES: usize = 8;

/// Virtual cycles of spinning per modeled CAS retry while stalled on a
/// held resource (a cache-line ping-pong plus a short backoff).
const RETRY_BACKOFF: u64 = 256;

/// Virtual cycles a shard lock is held per allocator trip (list pop and
/// bookkeeping; zeroing happens outside the lock in this model).
const ALLOC_HOLD: u64 = 120;

/// Resource-key namespace bit for allocator shards (page keys use
/// pid/hvpn bits only and never reach bit 63).
const SHARD_NS: u64 = 1 << 63;

/// The machine-wide compaction resource: compaction passes serialize
/// against each other (disjoint from every [`page_key`] and shard key).
pub const COMPACT_KEY: u64 = 1 << 62;

/// What a core does to a shared resource, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcOp {
    /// Exclusive page-state lock on `key`, held for `hold` cycles (the
    /// cycles the serial engine charged the operation).
    Lock {
        /// Resource key: `pid << 24 | hvpn` (see [`page_key`]).
        key: u64,
        /// Cycles the lock is held.
        hold: u64,
    },
    /// One allocator trip against the core's home shard.
    Alloc,
}

/// Stable page-state resource key for (`pid`, `hvpn`): app faults and
/// daemon promote/demote/dedup on the same region collide on it.
pub fn page_key(pid: u32, hvpn: u64) -> u64 {
    ((pid as u64) << 24) ^ (hvpn & ((1 << 24) - 1))
}

/// Which daemon (or the app pool) a core hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRole {
    /// Runs application processes.
    App,
    /// Runs promotion/demotion/dedup/compaction (khugepaged).
    Khugepaged,
    /// Runs the async pre-zeroing daemon.
    Prezero,
}

impl CoreRole {
    /// Stable numeric tag for trace payloads (0 app, 1 khugepaged,
    /// 2 prezero).
    pub fn tag(self) -> u64 {
        match self {
            CoreRole::App => 0,
            CoreRole::Khugepaged => 1,
            CoreRole::Prezero => 2,
        }
    }
}

/// How `cores` split between app processes and the two daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreLayout {
    /// Total simulated cores (2–[`MAX_CORES`] here; 1 disables recording).
    pub cores: u32,
    /// Cores `0..app_cores` run app processes.
    pub app_cores: u32,
}

impl CoreLayout {
    /// Splits `cores` (clamped to `2..=MAX_CORES`): the top two cores go
    /// to khugepaged and the pre-zero daemon (sharing one core at
    /// `cores = 2`), the rest to app processes.
    pub fn new(cores: u32) -> Self {
        let cores = cores.clamp(2, MAX_CORES as u32);
        let app_cores = (cores - 2).max(1);
        CoreLayout { cores, app_cores }
    }

    /// The home core of `pid`'s app-side operations.
    pub fn app_core(&self, pid: u32) -> usize {
        (pid % self.app_cores) as usize
    }

    /// The core hosting khugepaged.
    pub fn khugepaged_core(&self) -> usize {
        self.app_cores as usize
    }

    /// The core hosting the pre-zero daemon (khugepaged's core when only
    /// one daemon core exists).
    pub fn prezero_core(&self) -> usize {
        ((self.app_cores + 1) as usize).min(self.cores as usize - 1)
    }

    /// The role of `core` (the pre-zero tag wins on a shared daemon core
    /// only when no khugepaged core exists separately).
    pub fn role(&self, core: usize) -> CoreRole {
        if core < self.app_cores as usize {
            CoreRole::App
        } else if core == self.prezero_core() && self.prezero_core() != self.khugepaged_core() {
            CoreRole::Prezero
        } else {
            CoreRole::Khugepaged
        }
    }

    /// Allocator shards: one per app core, shared by the daemon cores
    /// (`home_shard` folds them in), so daemon allocations contend with
    /// app allocations.
    pub fn shards(&self) -> usize {
        self.app_cores as usize
    }

    /// The home shard of `core`'s allocator trips.
    pub fn home_shard(&self, core: usize) -> usize {
        core % self.shards()
    }
}

/// One core's contention totals from the deterministic replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreContention {
    /// Lock + shard acquisitions replayed.
    pub acquisitions: u64,
    /// Modeled CAS retries while a resource was held elsewhere.
    pub cas_retries: u64,
    /// Virtual cycles stalled waiting for holders to release.
    pub stall_cycles: u64,
}

/// Per-core registry keys (static names; [`MAX_CORES`] slots).
const CORE_ACQ: [&str; MAX_CORES] = [
    "lock.core0.acquisitions",
    "lock.core1.acquisitions",
    "lock.core2.acquisitions",
    "lock.core3.acquisitions",
    "lock.core4.acquisitions",
    "lock.core5.acquisitions",
    "lock.core6.acquisitions",
    "lock.core7.acquisitions",
];
const CORE_RETRY: [&str; MAX_CORES] = [
    "lock.core0.cas_retries",
    "lock.core1.cas_retries",
    "lock.core2.cas_retries",
    "lock.core3.cas_retries",
    "lock.core4.cas_retries",
    "lock.core5.cas_retries",
    "lock.core6.cas_retries",
    "lock.core7.cas_retries",
];
const CORE_STALL: [&str; MAX_CORES] = [
    "lock.core0.stall_cycles",
    "lock.core1.stall_cycles",
    "lock.core2.stall_cycles",
    "lock.core3.stall_cycles",
    "lock.core4.stall_cycles",
    "lock.core5.stall_cycles",
    "lock.core6.stall_cycles",
    "lock.core7.stall_cycles",
];

/// Records the per-core access plan during serial execution and replays
/// it deterministically into the registry and journal when drained.
#[derive(Debug)]
pub struct ConcRecorder {
    layout: CoreLayout,
    /// Ops queued since the last drain, one plan per core.
    plans: Vec<Vec<ConcOp>>,
    /// Deterministic-replay state, persistent across drains so chunked
    /// runs (`run_for` loops) replay exactly like one long run.
    vclock: Vec<u64>,
    res_free_at: BTreeMap<u64, u64>,
    /// Cumulative per-core totals across drains.
    totals: Vec<CoreContention>,
}

impl ConcRecorder {
    /// A recorder for a `cores`-core machine (`cores >= 2`; core counts
    /// above [`MAX_CORES`] are clamped).
    pub fn new(cores: u32) -> Self {
        let layout = CoreLayout::new(cores);
        let n = layout.cores as usize;
        ConcRecorder {
            layout,
            plans: (0..n).map(|_| Vec::new()).collect(),
            vclock: vec![0; n],
            res_free_at: BTreeMap::new(),
            totals: vec![CoreContention::default(); n],
        }
    }

    /// The core layout.
    pub fn layout(&self) -> CoreLayout {
        self.layout
    }

    /// Cumulative per-core contention totals (deterministic replay).
    pub fn totals(&self) -> &[CoreContention] {
        &self.totals
    }

    fn record(&mut self, core: usize, op: ConcOp) {
        self.plans[core].push(op);
    }

    /// Records an app-side page operation: the page-state lock (held for
    /// the cycles the serial engine charged) and optionally one allocator
    /// trip.
    pub fn app(&mut self, pid: u32, key: u64, hold: Cycles, alloc: bool) {
        let core = self.layout.app_core(pid);
        self.op(core, key, hold, alloc);
    }

    /// Records a khugepaged-side operation (promotion, demotion, dedup,
    /// compaction).
    pub fn khugepaged(&mut self, key: u64, hold: Cycles, alloc: bool) {
        let core = self.layout.khugepaged_core();
        self.op(core, key, hold, alloc);
    }

    /// Records one pre-zero daemon pass: `trips` arena-lock trips on the
    /// pre-zero core (one per max-order block walked).
    pub fn prezero(&mut self, trips: u64) {
        let core = self.layout.prezero_core();
        for _ in 0..trips.min(64) {
            self.record(core, ConcOp::Alloc);
        }
    }

    fn op(&mut self, core: usize, key: u64, hold: Cycles, alloc: bool) {
        if alloc {
            self.record(core, ConcOp::Alloc);
        }
        self.record(core, ConcOp::Lock { key, hold: hold.get() });
    }

    /// Replays everything recorded since the last drain into `metrics` +
    /// `trace`. No-op when nothing was recorded.
    pub fn drain(&mut self, metrics: &MetricsSink, trace: &TraceSink) {
        if self.plans.iter().all(Vec::is_empty) {
            return;
        }
        let per_core = self.deterministic_replay(metrics, trace);
        for (core, c) in per_core.iter().enumerate() {
            self.totals[core].acquisitions += c.acquisitions;
            self.totals[core].cas_retries += c.cas_retries;
            self.totals[core].stall_cycles += c.stall_cycles;
        }
        for plan in &mut self.plans {
            plan.clear();
        }
    }

    /// The discrete-event interleaving. Cores advance in (virtual time,
    /// core id) order; each op waits out the current holder of its
    /// resource, charging one CAS retry per [`RETRY_BACKOFF`] window of
    /// the stall. Everything here is a pure function of the recorded
    /// plan, so its registry/journal output is reproducible bit for bit.
    fn deterministic_replay(
        &mut self,
        metrics: &MetricsSink,
        trace: &TraceSink,
    ) -> Vec<CoreContention> {
        let n = self.layout.cores as usize;
        let mut next = vec![0usize; n];
        let mut out = vec![CoreContention::default(); n];
        let mut retry_hist = LogHistogram::new();
        let mut hold_hist = LogHistogram::new();
        // The runnable core with the smallest virtual clock (ties by
        // core id) executes its next op.
        while let Some(core) = (0..n)
            .filter(|&c| next[c] < self.plans[c].len())
            .min_by_key(|&c| (self.vclock[c], c))
        {
            let op = self.plans[core][next[core]];
            next[core] += 1;
            let (res, hold) = match op {
                ConcOp::Lock { key, hold } => (key, hold),
                ConcOp::Alloc => {
                    (SHARD_NS | self.layout.home_shard(core) as u64, ALLOC_HOLD)
                }
            };
            let mut t = self.vclock[core];
            out[core].acquisitions += 1;
            let free_at = self.res_free_at.get(&res).copied().unwrap_or(0);
            if free_at > t {
                let stall = free_at - t;
                let retries = 1 + stall / RETRY_BACKOFF;
                out[core].stall_cycles += stall;
                out[core].cas_retries += retries;
                retry_hist.observe(retries);
                t = free_at;
            } else {
                retry_hist.observe(0);
            }
            hold_hist.observe(hold);
            let end = t + hold;
            self.res_free_at.insert(res, end);
            self.vclock[core] = end;
        }
        let mut daemon_stall = 0u64;
        for (core, c) in out.iter().enumerate() {
            if c.acquisitions == 0 {
                continue;
            }
            metrics.add(CORE_ACQ[core], c.acquisitions);
            metrics.add(CORE_RETRY[core], c.cas_retries);
            metrics.add(CORE_STALL[core], c.stall_cycles);
            metrics.add("lock.acquisitions", c.acquisitions);
            metrics.add("lock.cas_retries", c.cas_retries);
            metrics.add("lock.stall_cycles", c.stall_cycles);
            let role = self.layout.role(core);
            if role != CoreRole::App {
                daemon_stall += c.stall_cycles;
            }
            trace.emit(
                0,
                TraceEvent::Contention {
                    core: core as u64,
                    role: role.tag(),
                    acquisitions: c.acquisitions,
                    cas_retries: c.cas_retries,
                    stall_cycles: c.stall_cycles,
                },
            );
        }
        metrics.add("lock.daemon_stall_cycles", daemon_stall);
        metrics.merge_hist("lock.retry_spins", &retry_hist);
        metrics.merge_hist("lock.hold_cycles", &hold_hist);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_metrics::registry;
    use hawkeye_trace::scope;

    #[test]
    fn layout_places_daemons_on_top_cores() {
        let l = CoreLayout::new(4);
        assert_eq!((l.cores, l.app_cores), (4, 2));
        assert_eq!(l.khugepaged_core(), 2);
        assert_eq!(l.prezero_core(), 3);
        assert_eq!(l.role(0), CoreRole::App);
        assert_eq!(l.role(2), CoreRole::Khugepaged);
        assert_eq!(l.role(3), CoreRole::Prezero);
        assert_eq!(l.app_core(1), 1);
        assert_eq!(l.app_core(2), 0);
        // Two cores: one app core, both daemons share core 1.
        let two = CoreLayout::new(2);
        assert_eq!(two.app_cores, 1);
        assert_eq!(two.khugepaged_core(), 1);
        assert_eq!(two.prezero_core(), 1);
        assert_eq!(two.role(1), CoreRole::Khugepaged);
        // Clamped at both ends.
        assert_eq!(CoreLayout::new(1).cores, 2);
        assert_eq!(CoreLayout::new(99).cores, MAX_CORES as u32);
    }

    #[test]
    fn deterministic_replay_counts_contention_exactly() {
        // Two cores hammer the same key back to back: core 1's ops all
        // arrive while core 0 still holds the resource (and vice versa),
        // so the interleaving is fully determined.
        let run = || {
            registry::scope::begin();
            scope::begin(1 << 12);
            let mut rec = ConcRecorder::new(4);
            for i in 0..50u32 {
                rec.app(0, page_key(1, 7), Cycles::new(1000), false);
                rec.khugepaged(page_key(1, 7), Cycles::new(500 + i as u64), false);
            }
            let metrics = MetricsSink::attach_current();
            let trace = TraceSink::attach_current();
            rec.drain(&metrics, &trace);
            let reg = registry::scope::end().expect("registry");
            let journal = scope::end().expect("journal");
            (format!("{reg:?}"), journal.records.len())
        };
        let (a, events_a) = run();
        let (b, events_b) = run();
        assert_eq!(a, b, "replay must be bit-reproducible");
        assert_eq!(events_a, events_b);
        assert!(events_a > 0, "contention events emitted");
        assert!(a.contains("lock.cas_retries"), "retries recorded: {a}");
    }

    #[test]
    fn disjoint_keys_do_not_contend() {
        registry::scope::begin();
        let mut rec = ConcRecorder::new(4);
        for i in 0..20u32 {
            rec.app(0, page_key(1, i as u64), Cycles::new(100), false);
            rec.app(1, page_key(2, 1000 + i as u64), Cycles::new(100), false);
        }
        let metrics = MetricsSink::attach_current();
        rec.drain(&metrics, &TraceSink::disabled());
        let reg = registry::scope::end().expect("registry");
        let m = reg.machine(0).expect("attached");
        assert_eq!(m.counter("lock.acquisitions"), 40);
        assert_eq!(m.counter("lock.cas_retries"), 0, "no shared resources");
        assert_eq!(m.counter("lock.stall_cycles"), 0);
    }

    #[test]
    fn chunked_drains_match_one_big_drain() {
        let run = |chunks: usize| {
            registry::scope::begin();
            let mut rec = ConcRecorder::new(3);
            let metrics = MetricsSink::attach_current();
            for c in 0..chunks {
                for i in 0..30u64 {
                    rec.app(0, page_key(1, 5), Cycles::new(700), true);
                    rec.khugepaged(page_key(1, 5), Cycles::new(300 + i), false);
                }
                let _ = c;
                rec.drain(&metrics, &TraceSink::disabled());
            }
            let reg = registry::scope::end().expect("registry");
            format!("{:?}", reg.machine(0).map(|m| m.counters().collect::<Vec<_>>()))
        };
        // 3 chunks of 30 vs 1 chunk of 90: persistent virtual clocks make
        // the split invisible to the deterministic counters.
        let chunked = run(3);
        let whole = {
            registry::scope::begin();
            let mut rec = ConcRecorder::new(3);
            let metrics = MetricsSink::attach_current();
            for _ in 0..3 {
                for i in 0..30u64 {
                    rec.app(0, page_key(1, 5), Cycles::new(700), true);
                    rec.khugepaged(page_key(1, 5), Cycles::new(300 + i), false);
                }
            }
            rec.drain(&metrics, &TraceSink::disabled());
            let reg = registry::scope::end().expect("registry");
            format!("{:?}", reg.machine(0).map(|m| m.counters().collect::<Vec<_>>()))
        };
        assert_eq!(chunked, whole);
    }
}
