//! The four benchmark workloads and the repetition runner.
//!
//! Each workload builds a fresh simulator through public APIs only
//! (`PolicyKind::{config,build}`, `Simulator::{new,spawn,run_while}`,
//! `Machine::fragment`, `dirty_free_memory`, the `hawkeye-workloads`
//! constructors), runs it, and checks what it computed. The simulator
//! receives only inputs generated from the benchmark seed.

use crate::digest::{self, Fnv};
use crate::unstable;
use crate::wrap::{OpLog, PolicyLog, TimedPolicy, TimedWorkload};
use hawkeye_bench::{dirty_free_memory, trace_json, PolicyKind};
use hawkeye_kernel::rng::SplitMix64;
use hawkeye_kernel::{workload::script, HugePagePolicy, KernelConfig, KernelStats, Machine, MemOp};
use hawkeye_kernel::{Simulator, Workload as Generator};
use hawkeye_metrics::Cycles;
use hawkeye_vm::{VmaKind, Vpn};
use hawkeye_workloads::{BtreeOltp, HotspotWorkload, RedisKv, RedisOp, Spinup, StencilSweep};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8's graph500 + lightly-loaded Redis pair on a fragmented
    /// machine under HawkEye-PMU, traced and parsed as the report suite
    /// does. The only workload that exercises the artifact layer.
    PairFragmented,
    /// A TPC-C-like B-tree under Linux-4KB: every touch misses the TLB and
    /// walks; no daemons, no fast path, no event skip.
    Btree4k,
    /// A multigrid stencil under HawkEye-G on huge pages: the fast path's
    /// best case, with ~no walks, faults or policy work.
    StencilHuge,
    /// Redis insert/delete/serve, VM spin-up and idle episodes beside a
    /// memory hog under HawkEye-G: faults, promotions, demotions,
    /// compaction and pre-zeroing, and the only workload that skips quanta.
    FaultChurn,
}

/// Workload size: the measured scale, or the reduced smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A reduced configuration for smoke tests (`--quick`).
    Quick,
}

impl Scale {
    /// The name used in `expected_digests.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

impl Workload {
    /// All workloads, in the order rounds run them.
    pub const ALL: [Workload; 4] = [
        Workload::PairFragmented,
        Workload::Btree4k,
        Workload::StencilHuge,
        Workload::FaultChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairFragmented => "pair_fragmented",
            Workload::Btree4k => "btree_4k",
            Workload::StencilHuge => "stencil_huge",
            Workload::FaultChurn => "fault_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition with `seed`'s inputs.
    pub fn run(self, seed: u64, scale: Scale, probe: &mut Probe) -> Outcome {
        // Each workload draws its input seeds from its own stream.
        let seeds = SplitMix64::new(seed ^ (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        match self {
            Workload::PairFragmented => pair_fragmented(seeds, scale, probe),
            Workload::Btree4k => btree_4k(seeds, scale, probe),
            Workload::StencilHuge => stencil_huge(seeds, scale, probe),
            Workload::FaultChurn => fault_churn(seeds, scale, probe),
        }
    }
}

/// What a traced repetition records, beyond the simulation's outputs.
#[derive(Default)]
pub struct Traced {
    /// The policy wrapper's log.
    pub policy: Arc<Mutex<PolicyLog>>,
    /// The workload wrappers' log.
    pub ops: Arc<Mutex<OpLog>>,
    /// Host nanoseconds between consecutive `run_while` predicate calls,
    /// i.e. per quantum.
    pub quantum_ns: Vec<f64>,
}

/// Instrumentation for one repetition. [`Probe::bare`] adds nothing to
/// the simulation: no wrappers and no per-quantum work.
pub struct Probe {
    /// The traced repetition's records; `None` for a bare one.
    pub traced: Option<Traced>,
    /// `(quanta_total, quanta_skipped)` over this repetition's runs.
    pub quanta: (u64, u64),
    /// Also check that every finished process executed exactly the touches
    /// its generator emits (regenerates the op streams, so it costs host
    /// time outside the timed region).
    pub conservation: bool,
}

impl Probe {
    /// No instrumentation.
    pub fn bare() -> Self {
        Probe {
            traced: None,
            quanta: (0, 0),
            conservation: false,
        }
    }

    /// Wrappers on the policy and every workload, quanta timed, and the
    /// first `capture` touched pages recorded.
    pub fn traced(capture: usize) -> Self {
        let ops = OpLog {
            capture_limit: capture,
            ..OpLog::default()
        };
        let traced = Traced {
            ops: Arc::new(Mutex::new(ops)),
            ..Traced::default()
        };
        Probe {
            traced: Some(traced),
            ..Probe::bare()
        }
    }

    fn policy(&self, p: Box<dyn HugePagePolicy>) -> Box<dyn HugePagePolicy> {
        match &self.traced {
            Some(t) => Box::new(TimedPolicy::new(p, t.policy.clone())),
            None => p,
        }
    }

    fn workload(&self, w: Box<dyn Generator>) -> Box<dyn Generator> {
        match &self.traced {
            Some(t) => Box::new(TimedWorkload::new(w, t.ops.clone())),
            None => w,
        }
    }

    /// `Simulator::run_while`, timing each quantum when traced and
    /// counting quanta either way.
    fn run_while(&mut self, sim: &mut Simulator, mut keep: impl FnMut(&Machine) -> bool) {
        let (t0, s0) = unstable::quanta();
        match self.traced.as_mut() {
            Some(t) => {
                let mut last = Instant::now();
                sim.run_while(|m| {
                    let now = Instant::now();
                    t.quantum_ns.push((now - last).as_nanos() as f64);
                    last = now;
                    keep(m)
                });
            }
            None => {
                sim.run_while(keep);
            }
        }
        let (t1, s1) = unstable::quanta();
        self.quanta.0 += t1 - t0;
        self.quanta.1 += s1 - s0;
    }
}

/// The trace artifact of a repetition that produced one.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// Events in the journal.
    pub events: u64,
    /// Bytes of the serialized trace document.
    pub bytes: u64,
    /// When serialization (journal drain and JSON) started.
    pub serialize: Instant,
    /// When parsing started.
    pub parse: Instant,
}

/// What one repetition measured and computed.
pub struct Outcome {
    /// Set-up started: simulator construction, memory preparation, spawns.
    pub start: Instant,
    /// The timed region started (simulation, then any artifact work).
    pub run: Instant,
    /// The timed region ended.
    pub end: Instant,
    /// The artifact phase, for the workload that has one.
    pub artifact: Option<Artifact>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Page touches executed, over all processes.
    pub touches: u64,
    /// Page faults taken, over all processes.
    pub faults: u64,
    /// Huge-page faults among them.
    pub huge_faults: u64,
    /// Page walks performed.
    pub walks: u64,
    /// The machine's event counters.
    pub kernel: KernelStats,
    /// The machine's configuration (the replay builds matching layers).
    pub config: KernelConfig,
    /// Failed output checks, empty when the repetition is correct.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Host seconds of set-up.
    pub fn setup_s(&self) -> f64 {
        (self.run - self.start).as_secs_f64()
    }

    /// Host seconds of the timed region.
    pub fn host_s(&self) -> f64 {
        (self.end - self.run).as_secs_f64()
    }
}

/// Touches `w` emits until it is exhausted.
fn emitted_touches(w: &mut dyn Generator) -> u64 {
    let mut n = 0;
    while let Some(op) = w.next_op() {
        n += match op {
            MemOp::Touch { .. } => 1,
            MemOp::TouchRange { pages, .. } => pages,
            MemOp::TouchList { vpns, .. } => vpns.len() as u64,
            MemOp::Mmap { .. }
            | MemOp::Munmap { .. }
            | MemOp::Madvise { .. }
            | MemOp::Compute { .. } => 0,
        };
    }
    n
}

/// Checks shared by every workload, plus the outcome assembly.
struct Finish<'a> {
    sim: &'a Simulator,
    failures: Vec<String>,
}

impl<'a> Finish<'a> {
    fn new(sim: &'a Simulator) -> Self {
        let m = sim.machine();
        let mut failures = Vec::new();
        m.pm().check_invariants();
        if m.stats().oom_events > 0 {
            failures.push(format!("{} out-of-memory events", m.stats().oom_events));
        }
        Finish { sim, failures }
    }

    /// `pid` finished, and (when `emitted` is given) executed exactly the
    /// touches its generator emits.
    fn finished(&mut self, pid: u32, emitted: Option<u64>) {
        let p = self.sim.machine().process(pid).expect("spawned pid exists");
        if !p.is_finished() {
            self.failures
                .push(format!("{} (pid {pid}) did not finish", p.name()));
        } else if let Some(n) = emitted {
            let done = p.stats().touches;
            if done != n {
                self.failures.push(format!(
                    "{} (pid {pid}) executed {done} of {n} touches",
                    p.name()
                ));
            }
        }
    }

    fn outcome(
        self,
        start: Instant,
        run: Instant,
        end: Instant,
        mut h: Fnv,
        artifact: Option<Artifact>,
    ) -> Outcome {
        let m = self.sim.machine();
        let (mut touches, mut faults, mut huge_faults) = (0, 0, 0);
        for pid in m.pids() {
            let s = m.process(pid).expect("listed pid exists").stats();
            touches += s.touches;
            faults += s.faults;
            huge_faults += s.huge_faults;
        }
        h.word(digest::machine(m).finish());
        Outcome {
            start,
            run,
            end,
            artifact,
            digest: h.finish(),
            touches,
            faults,
            huge_faults,
            walks: m.mmu().total_walks(),
            kernel: m.stats(),
            config: m.config().clone(),
            failures: self.failures,
        }
    }
}

fn config(kind: PolicyKind, mib: u64, max_secs: f64) -> KernelConfig {
    let mut cfg = kind.config(mib);
    cfg.max_time = Cycles::from_secs(max_secs);
    cfg
}

fn pair_fragmented(mut s: SplitMix64, scale: Scale, probe: &mut Probe) -> Outcome {
    let (frag, graph_seed, redis_seed) = (s.next_u64(), s.next_u64(), s.next_u64());
    let (iters, keys) = match scale {
        Scale::Full => (4500, 24 * 1024),
        Scale::Quick => (600, 8 * 1024),
    };
    let graph500 = || HotspotWorkload::new("graph500", 56, 14, 0.85, iters, 60, graph_seed);
    let kind = PolicyKind::HawkEyePmu;

    let start = Instant::now();
    unstable::open_scopes();
    let mut sim = Simulator::new(config(kind, 768, 400.0), probe.policy(kind.build()));
    sim.machine_mut().fragment(1.0, 0.55, frag);
    let graph = sim.spawn(probe.workload(Box::new(graph500())));
    sim.spawn(probe.workload(Box::new(RedisKv::lightly_loaded(
        keys,
        100_000_000,
        redis_seed,
    ))));

    let run = Instant::now();
    probe.run_while(&mut sim, |m| {
        m.process(graph).is_some_and(|p| !p.is_finished())
    });
    let serialize = Instant::now();
    let (journal, registry) = unstable::close_scopes();
    let journals = [("pair".to_string(), journal.expect("trace scope was open"))];
    let doc = trace_json(Workload::PairFragmented.name(), &journals).to_string();
    let parse = Instant::now();
    let parsed = hawkeye_analyze::parse_trace(&doc);
    let end = Instant::now();

    let mut f = Finish::new(&sim);
    f.finished(
        graph,
        probe.conservation.then(|| emitted_touches(&mut graph500())),
    );
    let journal = &journals[0].1;
    let (events, dropped) = (journal.records.len() as u64, journal.dropped);
    match parsed {
        Ok(d)
            if d.scenarios.len() == 1
                && d.scenarios[0].records == journal.records
                && d.scenarios[0].dropped == dropped => {}
        Ok(_) => f
            .failures
            .push("the parsed trace differs from the journal".to_string()),
        Err(e) => f.failures.push(format!("the trace does not parse: {e}")),
    }
    let residue = registry
        .as_ref()
        .and_then(|r| r.machine(0))
        .map(|m| m.residue());
    if residue != Some(0) {
        f.failures
            .push(format!("registry residue {residue:?}, want Some(0)"));
    }
    let mut h = Fnv::default();
    h.word(events);
    h.word(dropped);
    h.word(doc.len() as u64);
    let artifact = Artifact {
        events,
        bytes: doc.len() as u64,
        serialize,
        parse,
    };
    f.outcome(start, run, end, h, Some(artifact))
}

fn btree_4k(mut s: SplitMix64, scale: Scale, probe: &mut Probe) -> Outcome {
    let (frag, tree_seed) = (s.next_u64(), s.next_u64());
    let txns = match scale {
        Scale::Full => 2_000_000,
        Scale::Quick => 200_000,
    };
    let tree =
        || BtreeOltp::new("tpcc-btree", 40, 0.7, 0.3, 8, 0.1, txns, 90, tree_seed).with_fill(0.65);
    let kind = PolicyKind::Linux4k;

    let start = Instant::now();
    let mut sim = Simulator::new(config(kind, 256, 3600.0), probe.policy(kind.build()));
    sim.machine_mut().fragment(1.0, 0.55, frag);
    let pid = sim.spawn(probe.workload(Box::new(tree())));
    let run = Instant::now();
    probe.run_while(&mut sim, |_| true);
    let end = Instant::now();

    let mut f = Finish::new(&sim);
    f.finished(
        pid,
        probe.conservation.then(|| emitted_touches(&mut tree())),
    );
    f.outcome(start, run, end, Fnv::default(), None)
}

fn stencil_huge(mut s: SplitMix64, scale: Scale, probe: &mut Probe) -> Outcome {
    let (frag, grid_seed) = (s.next_u64(), s.next_u64());
    let cycles = match scale {
        Scale::Full => 1500,
        Scale::Quick => 150,
    };
    let grid = || StencilSweep::new("flash", 96, cycles, 40, grid_seed);
    let kind = PolicyKind::HawkEyeG;

    let start = Instant::now();
    let mut sim = Simulator::new(config(kind, 1024, 3600.0), probe.policy(kind.build()));
    sim.machine_mut().fragment(0.3, 0.5, frag);
    let pid = sim.spawn(probe.workload(Box::new(grid())));
    let run = Instant::now();
    probe.run_while(&mut sim, |_| true);
    let end = Instant::now();

    let mut f = Finish::new(&sim);
    f.finished(
        pid,
        probe.conservation.then(|| emitted_touches(&mut grid())),
    );
    f.outcome(start, run, end, Fnv::default(), None)
}

/// Pages of the co-resident memory hog in `fault_churn`.
const HOG_PAGES: u64 = 60 * 1024;

fn fault_churn(mut s: SplitMix64, scale: Scale, probe: &mut Probe) -> Outcome {
    let frag = s.next_u64();
    let episodes = match scale {
        Scale::Full => 24,
        Scale::Quick => 3,
    };
    let redis_seeds: Vec<u64> = (0..episodes).map(|_| s.next_u64()).collect();
    let redis = |seed| {
        let script = vec![
            RedisOp::Insert {
                keys: 24 * 1024,
                value_pages: 1,
                think: 300,
            },
            RedisOp::DeleteFrac { fraction: 0.6 },
            RedisOp::Serve {
                requests: 20_000,
                think: 120_000,
            },
        ];
        RedisKv::new(64 * 1024, script, seed)
    };
    let spinup = || Spinup::new("kvm", 24 * 1024);
    let idle = || {
        script(
            "idle",
            vec![MemOp::Compute {
                cycles: 3_000_000_000,
            }],
        )
    };
    let kind = PolicyKind::HawkEyeG;

    let start = Instant::now();
    let mut sim = Simulator::new(config(kind, 384, 3600.0), probe.policy(kind.build()));
    dirty_free_memory(sim.machine_mut());
    sim.machine_mut().fragment(0.6, 0.5, frag);
    let hog = sim.spawn(probe.workload(script(
        "hog",
        vec![
            MemOp::Mmap {
                start: Vpn(0),
                pages: HOG_PAGES,
                kind: VmaKind::Anon,
            },
            MemOp::TouchRange {
                start: Vpn(0),
                pages: HOG_PAGES,
                write: true,
                think: 0,
                stride: 1,
                repeats: 1,
            },
            MemOp::Compute {
                cycles: u64::MAX / 4,
            },
        ],
    )));
    let run = Instant::now();
    let mut spawned = Vec::new();
    for &seed in &redis_seeds {
        let episode: [Box<dyn Fn() -> Box<dyn Generator>>; 3] = [
            Box::new(move || Box::new(redis(seed))),
            Box::new(move || Box::new(spinup())),
            Box::new(idle),
        ];
        for make in episode {
            let pid = sim.spawn(probe.workload(make()));
            probe.run_while(&mut sim, |m| {
                m.process(pid).is_some_and(|p| !p.is_finished())
            });
            spawned.push((pid, make));
        }
    }
    let end = Instant::now();

    let mut f = Finish::new(&sim);
    for (pid, make) in spawned {
        f.finished(
            pid,
            probe.conservation.then(|| emitted_touches(&mut *make())),
        );
    }
    if sim.machine().process(hog).is_some_and(|p| p.is_finished()) {
        f.failures.push("the memory hog exited early".to_string());
    }
    f.outcome(start, run, end, Fnv::default(), None)
}
