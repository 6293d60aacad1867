//! Differential test for the simulator fast path.
//!
//! Runs the same workload/policy pair twice — `fast_path` on (batched
//! touch streaks) and off (per-access modeling all the way) — and asserts every observable is bit-identical: per-process
//! stats, kernel stats, lifetime PMU counters, total walks, final
//! translations, frame contents, and simulated time. The fast path is an
//! optimization, not an approximation.

use hawkeye_kernel::rng::SplitMix64;
use hawkeye_kernel::workload::script;
use hawkeye_kernel::{
    BasePagesOnly, FaultAction, HugePagePolicy, KernelConfig, Machine, MemOp, Simulator, Workload,
};
use hawkeye_metrics::Cycles;
use hawkeye_vm::{Hvpn, Vpn, VmaKind};

/// Faults regions in huge when possible and churns mappings from its
/// tick: demotes one region, re-promotes another, and de-duplicates zero
/// pages — exercising every translation-cache invalidation path while
/// streaks are executing.
struct ChurnPolicy {
    flip: u64,
}

impl HugePagePolicy for ChurnPolicy {
    fn name(&self) -> &str {
        "churn"
    }

    fn on_fault(&mut self, _m: &mut Machine, _pid: u32, vpn: Vpn) -> FaultAction {
        // Alternate: even regions fault huge, odd regions base.
        if vpn.hvpn().0.is_multiple_of(2) {
            FaultAction::MapHuge
        } else {
            FaultAction::MapBase
        }
    }

    fn on_tick(&mut self, m: &mut Machine) {
        self.flip += 1;
        for pid in m.running_pids() {
            let regions: Vec<Hvpn> = m
                .process(pid)
                .map(|p| p.space().page_table().mapped_regions().collect())
                .unwrap_or_default();
            if regions.is_empty() {
                continue;
            }
            let pick = regions[(self.flip as usize) % regions.len()];
            let is_huge = m
                .process(pid)
                .and_then(|p| p.space().page_table().huge_entry(pick).copied())
                .is_some();
            if is_huge {
                if self.flip.is_multiple_of(3) {
                    m.demote(pid, pick);
                } else {
                    let _ = m.dedup_zero_pages(pid, pick, 1);
                }
            } else {
                let _ = m.promote(pid, pick);
            }
            // Exercise two-phase sampling invalidation as HawkEye does.
            let arm = Hvpn(regions[0].0);
            if let Some(p) = m.process_mut(pid) {
                if self.flip.is_multiple_of(2) {
                    p.space_mut().clear_region_access(arm);
                } else {
                    let _ = p.space_mut().sample_and_clear_access(arm);
                }
            }
        }
    }
}

/// Deterministic workload with a mix of streaming ranges, random lists
/// (with duplicates), repeat-heavy single-page touches, and releases.
struct MixWorkload {
    ops: Vec<MemOp>,
    next: usize,
    dirt: SplitMix64,
}

impl MixWorkload {
    fn new(seed: u64) -> Self {
        let pages: u64 = 16 * 512;
        let mut rng = SplitMix64::new(seed);
        let mut ops = vec![MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon }];
        for round in 0..6 {
            // Streaming pass (hits the TouchRange streak batcher).
            ops.push(MemOp::TouchRange {
                start: Vpn(0),
                pages,
                write: round % 2 == 0,
                think: (round % 3) as u32 * 10,
                stride: 1,
                repeats: 1 + (round % 4) as u32,
            });
            // Random list with intentional duplicate runs.
            let mut vpns = Vec::new();
            for _ in 0..600 {
                let v = Vpn(rng.below(pages));
                let dup = 1 + rng.below(3);
                for _ in 0..dup {
                    vpns.push(v);
                }
            }
            ops.push(MemOp::TouchList { vpns, write: rng.below(2) == 1, think: 20 });
            // Repeat hammer on one page.
            ops.push(MemOp::Touch {
                vpn: Vpn(rng.below(pages)),
                write: true,
                repeats: 300,
                think: 5,
            });
            // Release a region mid-run so retouches refault (and COW
            // writes land on deduped zero pages).
            if round == 2 || round == 4 {
                let h = rng.below(16);
                ops.push(MemOp::Madvise { start: Vpn(h * 512), pages: 512 });
            }
            // A think-free streak: infinite quantum batching limit.
            ops.push(MemOp::TouchRange {
                start: Vpn(0),
                pages: pages / 2,
                write: false,
                think: 0,
                stride: 1,
                repeats: 1,
            });
        }
        MixWorkload { ops, next: 0, dirt: SplitMix64::new(seed ^ 0xD1B7) }
    }
}

impl Workload for MixWorkload {
    fn name(&self) -> &str {
        "mix"
    }

    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.next).cloned();
        self.next += 1;
        op
    }

    fn dirt_offset(&mut self) -> u16 {
        self.dirt.below(4096) as u16
    }
}

fn run(fast_path: bool, policy: Box<dyn HugePagePolicy>, seed: u64) -> Simulator {
    let mut cfg = KernelConfig::small();
    cfg.fast_path = fast_path;
    let mut sim = Simulator::new(cfg, policy);
    sim.spawn(Box::new(MixWorkload::new(seed)));
    sim.run();
    sim
}

fn assert_runs_identical(on: Simulator, off: Simulator) {
    assert_eq!(on.machine().now(), off.machine().now(), "sim time");
    assert_eq!(on.machine().stats(), off.machine().stats(), "kernel stats");
    assert_eq!(on.machine().mmu().total_walks(), off.machine().mmu().total_walks(), "walks");
    let pids = on.machine().pids();
    assert_eq!(pids, off.machine().pids());
    for pid in pids {
        let p_on = on.machine().process(pid).unwrap();
        let p_off = off.machine().process(pid).unwrap();
        assert_eq!(p_on.stats(), p_off.stats(), "proc stats pid {pid}");
        assert_eq!(p_on.cpu_time(), p_off.cpu_time(), "cpu time pid {pid}");
        assert_eq!(
            on.machine().mmu().lifetime(pid),
            off.machine().mmu().lifetime(pid),
            "pmu pid {pid}"
        );
        // Address spaces (emptied at exit, but compare anyway).
        for v in 0..(16 * 512) {
            assert_eq!(
                p_on.space().translate(Vpn(v)),
                p_off.space().translate(Vpn(v)),
                "translation {v}"
            );
        }
    }
    // Frame-content parity: the zero scanner must see the same world.
    let n = on.machine().pm().total_frames().min(off.machine().pm().total_frames());
    for pfn in 0..n {
        let a = on.machine().pm().frame(hawkeye_mem::Pfn(pfn));
        let b = off.machine().pm().frame(hawkeye_mem::Pfn(pfn));
        assert_eq!(a.is_zeroed(), b.is_zeroed(), "frame {pfn} zero-ness");
    }
}

#[test]
fn base_only_runs_identical() {
    let on = run(true, Box::new(BasePagesOnly), 11);
    let off = run(false, Box::new(BasePagesOnly), 11);
    assert_runs_identical(on, off);
}

#[test]
fn churn_policy_runs_identical() {
    for seed in [1u64, 2, 3] {
        let on = run(true, Box::new(ChurnPolicy { flip: 0 }), seed);
        let off = run(false, Box::new(ChurnPolicy { flip: 0 }), seed);
        assert_runs_identical(on, off);
    }
}

#[test]
fn quantum_boundaries_split_streaks_identically() {
    // A tiny quantum forces streak batching to stop exactly where the
    // per-access loop would.
    for fast in [true, false] {
        let mut cfg = KernelConfig::small();
        cfg.fast_path = fast;
        cfg.quantum = Cycles::new(10_000);
        let mut sim = Simulator::new(cfg, Box::new(ChurnPolicy { flip: 0 }));
        sim.spawn(Box::new(MixWorkload::new(99)));
        sim.run();
        let pid = sim.machine().pids()[0];
        let st = sim.machine().process(pid).unwrap().stats();
        if fast {
            // Stash via thread-local-free trick: compare against a rerun.
            let mut cfg2 = KernelConfig::small();
            cfg2.fast_path = false;
            cfg2.quantum = Cycles::new(10_000);
            let mut sim2 = Simulator::new(cfg2, Box::new(ChurnPolicy { flip: 0 }));
            sim2.spawn(Box::new(MixWorkload::new(99)));
            sim2.run();
            let st2 = sim2.machine().process(pid).unwrap().stats();
            assert_eq!(st, st2, "tiny-quantum stats");
            assert_eq!(sim.machine().now(), sim2.machine().now(), "tiny-quantum time");
        }
        assert!(st.touches > 0);
    }
}

/// Faults huge and, from its ticks, de-duplicates the zero pages of
/// region 0 — so the workload's later writes hit zero-COW mappings and
/// take COW faults through the touch fault loop.
struct DedupOnTick {
    done: bool,
}

impl HugePagePolicy for DedupOnTick {
    fn name(&self) -> &str {
        "dedup-on-tick"
    }
    fn on_fault(&mut self, _m: &mut Machine, _pid: u32, _vpn: Vpn) -> FaultAction {
        FaultAction::MapHuge
    }
    fn on_tick(&mut self, m: &mut Machine) {
        if self.done {
            return;
        }
        for pid in m.running_pids() {
            if let Some(hawkeye_kernel::DedupOutcome::Deduped { zero_pages, .. }) =
                m.dedup_zero_pages(pid, Hvpn(0), 1)
            {
                self.done = zero_pages > 0;
            }
        }
    }
}

#[test]
fn zero_cow_write_faults_count_in_both_counters() {
    // Satellite: a write that lands on a deduped (zero-COW) page is a
    // page fault like any other — counted in `faults`/`fault_cycles` —
    // and additionally in `cow_faults`, making cow_faults ⊆ faults.
    for fast in [true, false] {
        let mut cfg = KernelConfig::small();
        cfg.fast_path = fast;
        let mut sim = Simulator::new(cfg, Box::new(DedupOnTick { done: false }));
        let pid = sim.spawn(script(
            "cow",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 512, kind: VmaKind::Anon },
                // Read-fault the region huge: all 512 pages stay zero.
                MemOp::TouchRange { start: Vpn(0), pages: 512, write: false, think: 0, stride: 1, repeats: 1 },
                // Cross several ticks so the policy dedups the region.
                MemOp::Compute { cycles: 60_000_000 },
                // Now write everything back: each deduped page must COW.
                MemOp::TouchRange { start: Vpn(0), pages: 512, write: true, think: 0, stride: 1, repeats: 1 },
            ],
        ));
        sim.run();
        let deduped = sim.machine().stats().deduped_zero_pages;
        assert!(deduped > 0, "the tick deduped zero pages (fast={fast})");
        let st = sim.machine().process(pid).unwrap().stats();
        assert_eq!(st.huge_faults, 1, "region faulted huge (fast={fast})");
        assert_eq!(st.cow_faults, deduped, "one COW fault per deduped page (fast={fast})");
        assert_eq!(
            st.faults,
            1 + st.cow_faults,
            "COW faults are a subset of total faults (fast={fast})"
        );
        assert!(st.fault_cycles > Cycles::ZERO);
        assert_eq!(st.touches, 512 + 512);
    }
}

// ---------------------------------------------------------------------------
// Nine-policy differential: the fast path vs. the per-access reference,
// comparing trace journals and metric registries as well as every
// counter, across every policy the evaluation compares.
// ---------------------------------------------------------------------------

use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_policies::{FreeBsd, Ingens, IngensConfig, LinuxThp};

/// The nine evaluated policies (the bench suite's `PolicyKind` matrix),
/// built fresh per run.
fn nine_policies(i: usize) -> (&'static str, Box<dyn HugePagePolicy>) {
    match i {
        0 => ("Linux-4KB", Box::new(BasePagesOnly)),
        1 => ("Linux-2MB", Box::new(LinuxThp::default())),
        2 => ("FreeBSD", Box::new(FreeBsd::default())),
        3 => ("Ingens", Box::new(Ingens::default())),
        4 => ("Ingens-90%", Box::new(Ingens::new(IngensConfig::fixed_90()))),
        5 => ("Ingens-50%", Box::new(Ingens::new(IngensConfig::fixed_50()))),
        6 => ("HawkEye-G", Box::new(HawkEye::new(HawkEyeConfig::default()))),
        7 => ("HawkEye-PMU", Box::new(HawkEye::new(HawkEyeConfig::pmu()))),
        _ => (
            "HawkEye-4KB",
            Box::new(HawkEye::new(HawkEyeConfig { huge_faults: false, ..Default::default() })),
        ),
    }
}

/// [`MixWorkload`] with long uniform stretches spliced in: `Compute` ops
/// spanning many quanta and think-free stride-1 streams over a resident
/// region, whose guaranteed-hit streaks the fast path charges in closed
/// form and cuts at quantum boundaries.
struct StreakMixWorkload {
    inner: MixWorkload,
    extra: Vec<MemOp>,
    draining: bool,
}

impl StreakMixWorkload {
    fn new(seed: u64) -> Self {
        let extra = vec![
            // Long pure-compute stretch: many whole quanta with nothing
            // interesting in them.
            MemOp::Compute { cycles: 80_000_000 },
            // Think-free re-stream of the (resident) region: L1-hit
            // streaks spanning many quanta.
            MemOp::TouchRange {
                start: Vpn(0),
                pages: 16 * 512,
                write: false,
                think: 0,
                stride: 1,
                repeats: 4,
            },
            MemOp::Compute { cycles: 25_000_000 },
        ];
        StreakMixWorkload { inner: MixWorkload::new(seed), extra, draining: false }
    }
}

impl Workload for StreakMixWorkload {
    fn name(&self) -> &str {
        "streak-mix"
    }

    fn next_op(&mut self) -> Option<MemOp> {
        if !self.draining {
            if let Some(op) = self.inner.next_op() {
                return Some(op);
            }
            self.draining = true;
            self.extra.reverse();
        }
        self.extra.pop()
    }

    fn dirt_offset(&mut self) -> u16 {
        self.inner.dirt_offset()
    }
}

/// Runs one policy under a trace scope and a metrics-registry scope,
/// with the fast path on or off.
fn run_instrumented(
    fast_path: bool,
    policy: Box<dyn HugePagePolicy>,
    seed: u64,
) -> (Simulator, hawkeye_trace::Journal, String) {
    hawkeye_metrics::registry::scope::begin();
    hawkeye_trace::scope::begin(1 << 18);
    let mut cfg = KernelConfig::small();
    cfg.fast_path = fast_path;
    let mut sim = Simulator::new(cfg, policy);
    sim.spawn(Box::new(StreakMixWorkload::new(seed)));
    sim.run();
    let journal = hawkeye_trace::scope::end().expect("trace scope active");
    let registry = hawkeye_metrics::registry::scope::end().expect("registry scope active");
    // BTreeMap-backed Debug output is deterministic and covers every
    // counter, gauge, histogram bucket, and ledger cell.
    (sim, journal, format!("{registry:?}"))
}

#[test]
fn fast_path_matches_reference_for_all_nine_policies() {
    for i in 0..9 {
        let (name, policy_on) = nine_policies(i);
        let (_, policy_off) = nine_policies(i);
        let (sim_on, journal_on, reg_on) = run_instrumented(true, policy_on, 7);
        let (sim_off, journal_off, reg_off) = run_instrumented(false, policy_off, 7);
        assert_eq!(
            journal_on.dropped, journal_off.dropped,
            "{name}: dropped trace records differ"
        );
        assert_eq!(
            journal_on.records.len(),
            journal_off.records.len(),
            "{name}: trace journal length differs"
        );
        assert_eq!(journal_on.records, journal_off.records, "{name}: trace journals differ");
        assert_eq!(reg_on, reg_off, "{name}: metrics registries differ");
        assert_runs_identical(sim_on, sim_off);
    }
}
