//! The closed-loop benchmark harness.
//!
//! One thread runs one simulation at a time; the next repetition starts
//! when the previous one ends. A round runs every selected workload once,
//! interleaved, so drift on a shared host hits all of them alike. Round 0
//! is the warm-up; timed rounds follow until the time budget is spent.
//!
//! An untraced invocation times bare repetitions (no wrappers, no
//! per-quantum work) for the end-to-end metrics. A traced invocation
//! alternates bare and traced repetitions: the traced ones give the
//! per-layer metrics, and the two medians give the tracing overhead.

use crate::heap;
use crate::metrics::{median, ratio, Def, END_TO_END, PER_LAYER};
use crate::replay::{self, Replay, CAPTURE};
use crate::spans::Spans;
use crate::workloads::{Outcome, Probe, Scale, Workload};
use hawkeye_metrics::stats::percentile;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What to measure.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads, run in this order within each round.
    pub workloads: Vec<Workload>,
    /// Benchmark seed; every workload input derives from it.
    pub seed: u64,
    /// Host seconds of timed rounds to run, after the warm-up round.
    pub seconds: f64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// Timed seconds per invocation when none are given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Timed rounds an untraced invocation runs at least, so every median
/// has ten samples even when all four workloads share the time budget.
const MIN_BARE: usize = 10;
/// Traced (and bare) repetitions a traced invocation runs at least.
const MIN_TRACED: usize = 2;

/// One workload's results.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Repetitions run, warm-up included.
    pub attempted: u64,
    /// Repetitions that panicked or computed a wrong output.
    pub failed: u64,
    /// Why each failed repetition failed.
    pub failures: Vec<String>,
    /// Repetitions behind the medians.
    pub samples: usize,
    /// Every metric of the invocation's kind, in definition order.
    pub metrics: Vec<(Def, f64)>,
    /// Traced runs only: the median traced repetition's per-layer self
    /// times summed, as a share of its timed region (1.0 when they
    /// account for all of it).
    pub layer_sum_share: Option<f64>,
}

/// Expected digests: `<workload> <scale> <seed> <hex digest>` per line.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// The recorded digest for `w` at `scale` and `seed`, if any.
pub fn expected_digest(w: Workload, scale: Scale, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [name, sc, s, d] if name == w.name() && sc == scale.name() && s.parse() == Ok(seed) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    /// Untimed bare repetition.
    Warmup,
    /// Untimed traced repetition recording touched pages for the replay.
    Capture,
    /// Timed, no instrumentation.
    Bare,
    /// Timed, wrappers and quantum timing on.
    Traced,
}

/// End-to-end sample of one bare repetition.
struct Sample {
    host_s: f64,
    setup_s: f64,
    heap_mib: f64,
    touches: u64,
}

/// Per-layer values of one traced repetition, and its timed region.
struct Layered {
    host_s: f64,
    values: BTreeMap<&'static str, f64>,
    layer_sum_share: f64,
}

struct Series {
    workload: Workload,
    expected: Option<u64>,
    reference: Option<u64>,
    attempted: u64,
    failures: Vec<String>,
    bare: Vec<Sample>,
    traced: Vec<Layered>,
    replay: Option<Replay>,
}

impl Series {
    fn new(workload: Workload, opts: &Options) -> Self {
        Series {
            workload,
            expected: expected_digest(workload, opts.scale, opts.seed),
            reference: None,
            attempted: 0,
            failures: Vec::new(),
            bare: Vec::new(),
            traced: Vec::new(),
            replay: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failures
            .push(format!("repetition {}: {why}", self.attempted));
    }

    /// Runs one repetition; returns its outcome and probe if every check
    /// passed.
    fn attempt(&mut self, rep: Rep, first: bool, opts: &Options) -> Option<(Outcome, Probe, f64)> {
        let mut probe = match rep {
            Rep::Warmup | Rep::Bare => Probe::bare(),
            Rep::Capture => Probe::traced(CAPTURE),
            Rep::Traced => Probe::traced(0),
        };
        probe.conservation = first;
        self.attempted += 1;
        let heap_at = heap::mark();
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.workload.run(opts.seed, opts.scale, &mut probe)
        }));
        let heap_mib = heap::peak_since(heap_at) as f64 / (1 << 20) as f64;
        let out = match run {
            Ok(out) => out,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("panicked: {msg}"));
                return None;
            }
        };
        if !out.failures.is_empty() {
            self.fail(out.failures.join("; "));
            return None;
        }
        let reference = *self.reference.get_or_insert(out.digest);
        if out.digest != reference {
            self.fail(format!(
                "digest {:016x} differs from the first repetition's {reference:016x}",
                out.digest
            ));
            return None;
        }
        if let Some(want) = self.expected.filter(|d| *d != out.digest) {
            self.fail(format!("digest {:016x}, recorded {want:016x}", out.digest));
            return None;
        }
        Some((out, probe, heap_mib))
    }

    fn repetition(&mut self, rep: Rep, first: bool, opts: &Options, spans: &mut Spans) {
        let Some((out, probe, heap_mib)) = self.attempt(rep, first, opts) else {
            return;
        };
        eprintln!(
            "{} repetition {} ({rep:?}): setup {:.4} s, timed {:.4} s, heap peak {heap_mib:.1} MiB, digest {:016x}",
            self.workload.name(),
            self.attempted,
            out.setup_s(),
            out.host_s(),
            out.digest
        );
        match rep {
            Rep::Warmup => {}
            Rep::Bare => self.bare.push(Sample {
                host_s: out.host_s(),
                setup_s: out.setup_s(),
                heap_mib,
                touches: out.touches,
            }),
            Rep::Capture => {
                let traced = probe
                    .traced
                    .as_ref()
                    .expect("capture repetitions are traced");
                let log = traced.ops.lock().expect("op log lock");
                let base = out.faults - out.huge_faults;
                self.replay = Some(replay::replay(
                    &log.vpns,
                    &out.config,
                    base,
                    out.huge_faults,
                ));
            }
            Rep::Traced => self
                .traced
                .push(layered(self.workload, &out, &probe, spans)),
        }
    }

    fn result(self, opts: &Options) -> WorkloadResult {
        let failed = self.failures.len() as u64;
        let (samples, metrics, layer_sum_share) = if opts.trace {
            per_layer(&self.bare, &self.traced, self.replay)
        } else {
            end_to_end(&self.bare)
        };
        WorkloadResult {
            workload: self.workload,
            attempted: self.attempted,
            failed,
            failures: self.failures,
            samples,
            metrics,
            layer_sum_share,
        }
    }
}

/// Records a traced repetition's spans and computes its per-layer values
/// (all but the replayed primitives and the tracing overhead, which are
/// per invocation).
fn layered(w: Workload, out: &Outcome, probe: &Probe, spans: &mut Spans) -> Layered {
    let traced = probe.traced.as_ref().expect("traced repetition");
    let policy = traced.policy.lock().expect("policy log lock");
    let ops = traced.ops.lock().expect("op log lock");
    let root = spans.interval(None, w.name(), out.start, out.end);
    spans.interval(Some(root), "setup", out.start, out.run);
    let sim_end = out.artifact.map_or(out.end, |a| a.serialize);
    let run = spans.interval(Some(root), "kernel.run", out.run, sim_end);
    spans.aggregate(run, "policy.on_fault", &policy.fault);
    spans.aggregate(run, "policy.on_tick", &policy.tick);
    spans.aggregate(run, "workloads.next_op", &ops.next_op);
    if let Some(a) = out.artifact {
        spans.interval(Some(root), "artifact.serialize", a.serialize, a.parse);
        spans.interval(Some(root), "artifact.parse", a.parse, out.end);
    }
    let layers = spans.layer_self_ns(root);
    let self_ns = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64;
    let host_s = out.host_s();
    let timed_ns: f64 = layers
        .iter()
        .filter(|(l, _)| l.as_str() != "setup")
        .map(|(_, ns)| *ns as f64)
        .sum();

    let (quanta, skipped) = probe.quanta;
    let k = out.kernel;
    let touches = out.touches as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut v = BTreeMap::new();
    v.insert("kernel.self_s", self_ns("kernel") / 1e9);
    v.insert("kernel.ns_per_touch", ratio(self_ns("kernel"), touches));
    v.insert("kernel.faults", out.faults as f64);
    v.insert("kernel.quanta", quanta as f64);
    v.insert("kernel.quanta_skipped", skipped as f64);
    v.insert("kernel.skip_ratio", ratio(skipped as f64, quanta as f64));
    v.insert(
        "kernel.quantum_us.p50",
        percentile(&traced.quantum_ns, 50.0) / 1e3,
    );
    v.insert(
        "kernel.quantum_us.p99",
        percentile(&traced.quantum_ns, 99.0) / 1e3,
    );
    v.insert("tlb.walks", out.walks as f64);
    v.insert(
        "tlb.walks_per_ktouch",
        ratio(out.walks as f64 * 1e3, touches),
    );
    v.insert("mem.compaction_migrated", k.compaction_migrated as f64);
    v.insert("mem.prezeroed_pages", k.prezeroed_pages as f64);
    v.insert("mem.sync_zeroed_pages", k.sync_zeroed_pages as f64);
    v.insert(
        "mem.async_zero_share",
        ratio(
            k.prezeroed_pages as f64,
            (k.prezeroed_pages + k.sync_zeroed_pages) as f64,
        ),
    );
    v.insert("policy.fault_calls", policy.fault.count as f64);
    v.insert("policy.fault_s", secs(policy.fault.total_ns));
    v.insert("policy.tick_calls", policy.tick.count as f64);
    v.insert("policy.tick_s", secs(policy.tick.total_ns));
    v.insert(
        "policy.tick_us.p99",
        percentile(&policy.tick_ns, 99.0) / 1e3,
    );
    v.insert("policy.promotions", k.promotions as f64);
    v.insert("policy.demotions", k.demotions as f64);
    // Every demotion splits a huge mapping made by a promotion or a huge
    // fault, so this is the share of huge mappings that were never split.
    let huge_made = k.promotions + out.huge_faults;
    v.insert(
        "policy.promotion_kept_ratio",
        ratio(
            huge_made.saturating_sub(k.demotions) as f64,
            huge_made as f64,
        ),
    );
    v.insert("workloads.next_op_calls", ops.next_op.count as f64);
    v.insert("workloads.next_op_s", secs(ops.next_op.total_ns));
    let (events, bytes) = out.artifact.map_or((0, 0), |a| (a.events, a.bytes));
    v.insert("artifact.trace_events", events as f64);
    v.insert("artifact.bytes", bytes as f64);
    v.insert(
        "artifact.serialize_s",
        out.artifact
            .map_or(0.0, |a| (a.parse - a.serialize).as_secs_f64()),
    );
    v.insert(
        "artifact.parse_s",
        out.artifact
            .map_or(0.0, |a| (out.end - a.parse).as_secs_f64()),
    );
    Layered {
        host_s,
        values: v,
        layer_sum_share: timed_ns / 1e9 / host_s,
    }
}

fn in_order(defs: &[Def], values: &BTreeMap<&'static str, f64>) -> Vec<(Def, f64)> {
    defs.iter()
        .map(|d| {
            (
                *d,
                *values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} not computed", d.name)),
            )
        })
        .collect()
}

fn end_to_end(bare: &[Sample]) -> (usize, Vec<(Def, f64)>, Option<f64>) {
    if bare.is_empty() {
        return (0, Vec::new(), None);
    }
    let col = |f: fn(&Sample) -> f64| bare.iter().map(f).collect::<Vec<f64>>();
    let host_s = median(&col(|s| s.host_s));
    let mut v = BTreeMap::new();
    v.insert("host_s", host_s);
    v.insert("touches_per_s", bare[0].touches as f64 / host_s);
    v.insert("setup_s", median(&col(|s| s.setup_s)));
    v.insert("peak_heap_mib", median(&col(|s| s.heap_mib)));
    (bare.len(), in_order(&END_TO_END, &v), None)
}

fn per_layer(
    bare: &[Sample],
    traced: &[Layered],
    replay: Option<Replay>,
) -> (usize, Vec<(Def, f64)>, Option<f64>) {
    let (Some(r), false, false) = (replay, bare.is_empty(), traced.is_empty()) else {
        return (0, Vec::new(), None);
    };
    let traced_s: Vec<f64> = traced.iter().map(|l| l.host_s).collect();
    let bare_s: Vec<f64> = bare.iter().map(|s| s.host_s).collect();
    // The repetition whose timed region is the median supplies every
    // value, so its self times add up.
    let mid_s = median(&traced_s);
    let mid = traced
        .iter()
        .find(|l| l.host_s == mid_s)
        .expect("the median is a sample");
    let mut v = mid.values.clone();
    v.insert("vm.access_ns.base", r.vm_base);
    v.insert("vm.access_ns.huge", r.vm_huge);
    v.insert("tlb.access_ns.base", r.tlb_base);
    v.insert("tlb.access_ns.huge", r.tlb_huge);
    v.insert("mem.alloc_ns", r.alloc);
    v.insert("trace.overhead_ratio", mid_s / median(&bare_s));
    (
        traced.len(),
        in_order(&PER_LAYER, &v),
        Some(mid.layer_sum_share),
    )
}

/// Runs the benchmark. Returns each workload's results and, for a traced
/// invocation, the spans of its traced repetitions.
pub fn run(opts: &Options, epoch: Instant) -> (Vec<WorkloadResult>, Spans) {
    let mut spans = Spans::new(epoch);
    let mut series: Vec<Series> = opts
        .workloads
        .iter()
        .map(|w| Series::new(*w, opts))
        .collect();
    let quick = opts.scale == Scale::Quick;
    let mut timed_since = Instant::now();
    for round in 0.. {
        // `--quick` measures its first round; otherwise round 0 warms up.
        let rep = match (opts.trace, round) {
            (false, 0) if !quick => Rep::Warmup,
            (false, _) => Rep::Bare,
            (true, 0) => Rep::Capture,
            (true, r) if r % 2 == 1 => Rep::Bare,
            (true, _) => Rep::Traced,
        };
        for s in series.iter_mut() {
            s.repetition(rep, round == 0, opts, &mut spans);
        }
        if round == 0 {
            timed_since = Instant::now();
        }
        let enough = if quick {
            round >= if opts.trace { 2 } else { 0 }
        } else {
            let min_rounds = if opts.trace { 2 * MIN_TRACED } else { MIN_BARE };
            round >= min_rounds && timed_since.elapsed().as_secs_f64() >= opts.seconds
        };
        if enough {
            break;
        }
    }
    (series.into_iter().map(|s| s.result(opts)).collect(), spans)
}
