//! The fleet orchestrator: cohorts × host groups × epochs.
//!
//! A *cohort* is a set of hosts running one kernel policy under one
//! [`FleetHook`] — the unit of A/B comparison. Hosts are partitioned
//! into *groups* (the migration/cascade domain); each group runs its
//! whole multi-epoch story inside one worker-pool job, serially and
//! deterministically, so the fleet fans out across the existing pool
//! with no cross-thread coupling at all. Per epoch, a group:
//!
//! 1. runs every host for one epoch of simulated time,
//! 2. reaps finished tenants (natural churn),
//! 3. feeds each host's trace tail + gauges to the hook and applies any
//!    steering at the quantum boundary,
//! 4. admits tenants up to the diurnal target (traffic curve),
//! 5. resolves overcommit storms — ballooning above `storm_util`,
//!    tenant migration to the least-loaded group member above
//!    `migrate_util` — and propagates a pressure cascade through the
//!    rest of the group.
//!
//! Every decision derives from a `SplitMix64` stream seeded by
//! `(seed, cohort, group)` and from simulated state only, so fleet
//! artifacts are byte-identical at any worker count and across runs.

use crate::hook::FleetHook;
use crate::host::{Host, HostCounters, TenantSpec};
use crate::pool::{self, Job};
use hawkeye_kernel::rng::SplitMix64;
use hawkeye_kernel::{HugePagePolicy, KernelConfig};
use hawkeye_metrics::registry::Subsystem;
use hawkeye_metrics::{Cycles, LogHistogram};
use hawkeye_obs::series::CohortAcc;
use hawkeye_trace::{Journal, TraceEvent};

/// Fleet shape and thresholds. All fields are plain data so a config can
/// be logged next to the artifacts it produced.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Hosts per cohort.
    pub hosts: usize,
    /// Hosts per migration/cascade group.
    pub group_size: usize,
    /// Epochs to run (one diurnal cycle spans the whole run).
    pub epochs: u32,
    /// Simulated time per epoch, in milliseconds.
    pub epoch_ms: u64,
    /// Fleet rng seed.
    pub seed: u64,
    /// Physical memory per host, MiB.
    pub host_mib: u64,
    /// Tenants per host at the diurnal trough.
    pub base_tenants: u32,
    /// Tenants per host at the diurnal peak.
    pub peak_tenants: u32,
    /// Utilization above which a host balloons its largest tenant.
    pub storm_util: f64,
    /// Utilization above which a host migrates its largest tenant away.
    pub migrate_util: f64,
    /// Utilization above which a cascading group member pre-balloons.
    pub cascade_util: f64,
    /// Trace-ring capacity for ordinary hosts (hooks read the tail).
    pub trace_capacity: usize,
    /// Hosts per cohort whose journals persist as artifacts.
    pub journal_hosts: usize,
    /// Trace-ring capacity for journaled hosts.
    pub journal_capacity: usize,
}

impl FleetConfig {
    /// The standard fleet shape at `hosts` hosts per cohort. Tenants are
    /// 8–22 MiB against 80 MiB hosts, so the diurnal peak overcommits
    /// and storms actually fire.
    pub fn sized(hosts: usize) -> Self {
        FleetConfig {
            hosts,
            group_size: 8,
            epochs: 8,
            epoch_ms: 20,
            seed: 411,
            host_mib: 80,
            base_tenants: 1,
            peak_tenants: 5,
            storm_util: 0.75,
            migrate_util: 0.90,
            cascade_util: 0.55,
            trace_capacity: 512,
            journal_hosts: 2,
            journal_capacity: 16 * 1024,
        }
    }

    /// The `fleet_slo` report shape: 1024 hosts per cohort.
    pub fn slo() -> Self {
        FleetConfig::sized(1024)
    }

    fn epoch(&self) -> Cycles {
        Cycles::from_millis(self.epoch_ms)
    }

    /// Diurnal tenant target at `epoch`: a triangle wave from
    /// `base_tenants` up to `peak_tenants` and back over the run.
    pub fn diurnal_target(&self, epoch: u32) -> u32 {
        let span = (self.peak_tenants - self.base_tenants.min(self.peak_tenants)) as f64;
        if self.epochs <= 1 {
            return self.peak_tenants;
        }
        let x = (epoch.min(self.epochs)) as f64 / self.epochs as f64;
        let intensity = 1.0 - (2.0 * x - 1.0).abs();
        self.base_tenants + (intensity * span).round() as u32
    }
}

/// One policy cohort: a kernel policy, its machine shape, and the
/// userspace hook steering it. Constructors are plain `fn` pointers so a
/// cohort spec is `Copy + Send` and each host group can build its own
/// private instances.
#[derive(Clone, Copy)]
pub struct CohortSpec {
    /// Cohort label ("HawkEye-G+throttle", ...).
    pub name: &'static str,
    /// Builds the kernel policy for one host.
    pub policy: fn() -> Box<dyn HugePagePolicy>,
    /// Builds the kernel config for one host, given its memory in MiB.
    pub config: fn(u64) -> KernelConfig,
    /// Builds the hook instance for one host group.
    pub hook: fn() -> Box<dyn FleetHook>,
}

/// Fleet-level SLOs for one cohort, aggregated across all of its hosts.
#[derive(Debug, Clone)]
pub struct CohortSlo {
    /// Cohort label.
    pub cohort: String,
    /// Hook name (from one instance).
    pub hook: String,
    /// Hosts aggregated.
    pub hosts: usize,
    /// Page faults fleet-wide (count of the merged latency histogram).
    pub faults: u64,
    /// Median fault latency, µs (log-bucketed, reproducible).
    pub p50_fault_us: f64,
    /// 99th-percentile fault latency, µs.
    pub p99_fault_us: f64,
    /// Aggregate MMU overhead: Σ walk cycles / Σ unhalted cycles.
    pub mmu_overhead: f64,
    /// RSS headroom: 1 − mean utilization over every (host, epoch).
    pub rss_headroom: f64,
    /// Kernel promotions fleet-wide.
    pub promotions: u64,
    /// Kernel demotions fleet-wide.
    pub demotions: u64,
    /// Zero pages recovered by bloat recovery fleet-wide.
    pub deduped_pages: u64,
    /// OOM kills fleet-wide.
    pub ooms: u64,
    /// Tenant admissions / completions / migrations and balloon events.
    pub tenancy: HostCounters,
    /// Steering decisions the hook issued.
    pub steer_decisions: u64,
}

/// The fleet run's outputs: per-cohort SLOs plus the sampled journals.
pub struct FleetResult {
    /// One entry per cohort, in input order.
    pub cohorts: Vec<CohortSlo>,
    /// `("<cohort>/h<index>", journal)` for each journaled host.
    pub journals: Vec<(String, Journal)>,
    /// Per-cohort telemetry accumulators, same order as `cohorts`.
    pub obs: Vec<CohortAcc>,
}

/// Per-group reduction, folded into [`CohortSlo`]s on the main thread.
struct GroupOutcome {
    fault_hist: LogHistogram,
    walk: u64,
    unhalted: u64,
    util_sum: f64,
    util_samples: u64,
    promotions: u64,
    demotions: u64,
    deduped: u64,
    ooms: u64,
    counters: HostCounters,
    steers: u64,
    journals: Vec<(usize, Journal)>,
    obs: CohortAcc,
}

/// Runs the fleet: every `(cohort, group)` pair becomes one pool job.
/// Results aggregate in submission order, so the output is byte-stable
/// at any `threads`.
///
/// Each group also folds its hosts' per-epoch windows (fault latencies
/// from the trace tail the hook already sees, walk/unhalted registry
/// deltas, utilization, FMFI) into mergeable [`CohortAcc`]s — pure reads
/// of state the epoch loop computes anyway.
pub fn run(cfg: &FleetConfig, cohorts: &[CohortSpec], threads: usize) -> FleetResult {
    let groups = cfg.hosts.div_ceil(cfg.group_size.max(1));
    let mut jobs: Vec<Job<GroupOutcome>> = Vec::new();
    for (ci, spec) in cohorts.iter().enumerate() {
        let spec = *spec;
        let cfg = *cfg;
        for g in 0..groups {
            let lo = g * cfg.group_size;
            let n = cfg.group_size.min(cfg.hosts - lo);
            jobs.push(Box::new(move || run_group(&cfg, &spec, ci, g, n)));
        }
    }
    let outcomes = pool::run_ordered(jobs, threads);
    let mut result = FleetResult {
        cohorts: Vec::new(),
        journals: Vec::new(),
        obs: Vec::new(),
    };
    for (ci, spec) in cohorts.iter().enumerate() {
        let mut hist = LogHistogram::new();
        let (mut walk, mut unhalted) = (0u64, 0u64);
        let (mut util_sum, mut util_samples) = (0.0f64, 0u64);
        let mut slo = CohortSlo {
            cohort: spec.name.to_string(),
            hook: (spec.hook)().name().to_string(),
            hosts: cfg.hosts,
            faults: 0,
            p50_fault_us: 0.0,
            p99_fault_us: 0.0,
            mmu_overhead: 0.0,
            rss_headroom: 0.0,
            promotions: 0,
            demotions: 0,
            deduped_pages: 0,
            ooms: 0,
            tenancy: HostCounters::default(),
            steer_decisions: 0,
        };
        let mut cohort_acc = CohortAcc::default();
        for out in &outcomes[ci * groups..(ci + 1) * groups] {
            cohort_acc.merge(&out.obs);
            hist.merge(&out.fault_hist);
            walk += out.walk;
            unhalted += out.unhalted;
            util_sum += out.util_sum;
            util_samples += out.util_samples;
            slo.promotions += out.promotions;
            slo.demotions += out.demotions;
            slo.deduped_pages += out.deduped;
            slo.ooms += out.ooms;
            slo.steer_decisions += out.steers;
            let c = &mut slo.tenancy;
            c.spawned += out.counters.spawned;
            c.finished += out.counters.finished;
            c.balloons += out.counters.balloons;
            c.cascade_balloons += out.counters.cascade_balloons;
            c.migrations_out += out.counters.migrations_out;
            c.migrations_in += out.counters.migrations_in;
            for (host, journal) in &out.journals {
                result.journals.push((format!("{}/h{host}", spec.name), journal.clone()));
            }
        }
        slo.faults = hist.count();
        slo.p50_fault_us = Cycles::new(hist.percentile(50.0)).as_micros();
        slo.p99_fault_us = Cycles::new(hist.percentile(99.0)).as_micros();
        slo.mmu_overhead = if unhalted == 0 { 0.0 } else { walk as f64 / unhalted as f64 };
        slo.rss_headroom = if util_samples == 0 {
            0.0
        } else {
            1.0 - util_sum / util_samples as f64
        };
        result.cohorts.push(slo);
        result.obs.push(cohort_acc);
    }
    result
}

/// Runs one host group start to finish (serial, deterministic).
fn run_group(
    cfg: &FleetConfig,
    spec: &CohortSpec,
    cohort: usize,
    group: usize,
    nhosts: usize,
) -> GroupOutcome {
    let mut rng = SplitMix64::new(
        cfg.seed ^ ((cohort as u64) << 48) ^ ((group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut hook = (spec.hook)();
    let mut out = GroupOutcome {
        fault_hist: LogHistogram::new(),
        walk: 0,
        unhalted: 0,
        util_sum: 0.0,
        util_samples: 0,
        promotions: 0,
        demotions: 0,
        deduped: 0,
        ooms: 0,
        counters: HostCounters::default(),
        steers: 0,
        journals: Vec::new(),
        obs: CohortAcc::with_epochs(cfg.epochs as usize),
    };
    // Per-host cumulative (walk, unhalted) cycles at the previous epoch
    // boundary, so each epoch records deltas.
    let mut obs_prev = vec![(0u64, 0u64); nhosts];
    let journaled = |i: usize| group * cfg.group_size + i < cfg.journal_hosts;
    let mut hosts: Vec<Host> = (0..nhosts)
        .map(|i| {
            let capacity =
                if journaled(i) { cfg.journal_capacity } else { cfg.trace_capacity };
            Host::new((spec.config)(cfg.host_mib), (spec.policy)(), capacity)
        })
        .collect();
    // Initial placement at the trough target.
    for host in &mut hosts {
        let target = cfg.diurnal_target(0) + rng.below(2) as u32;
        while (host.tenants() as u32) < target {
            host.admit(TenantSpec::generate(&mut rng));
        }
    }
    for epoch in 0..cfg.epochs {
        // 1. One epoch of simulated time per host.
        for host in &mut hosts {
            host.sim.run_for(cfg.epoch());
        }
        // 2. Natural churn: finished tenants free their memory.
        for host in &mut hosts {
            host.reap();
        }
        // 3. Hook observation + steering, in host order. The same
        // HostObs window feeds the per-epoch telemetry accumulator before
        // the hook sees it — pure reads, zero simulation drift.
        for (i, host) in hosts.iter_mut().enumerate() {
            let obs = host.observe(group * cfg.group_size + i, epoch);
            out.util_sum += obs.utilization;
            out.util_samples += 1;
            let slot = out.obs.epoch_mut(epoch as usize);
            slot.util_sum += obs.utilization;
            slot.fmfi_sum += obs.fmfi;
            slot.hosts += 1;
            for r in &obs.events {
                if let TraceEvent::Fault { cycles, .. } = r.event {
                    slot.fault_sketch.observe(cycles);
                }
            }
            if let Some(m) = &obs.metrics {
                let (walk, unhalted) = (m.cpu_cycles(Subsystem::Walk), m.unhalted());
                let (pw, pu) = obs_prev[i];
                slot.walk_cycles += walk.saturating_sub(pw);
                slot.unhalted_cycles += unhalted.saturating_sub(pu);
                obs_prev[i] = (walk, unhalted);
            }
            if let Some(s) = hook.steer(&obs) {
                host.sim.steer(&s);
                out.steers += 1;
            }
        }
        // 4. Diurnal admission up to the traffic-curve target.
        for host in &mut hosts {
            let target = cfg.diurnal_target(epoch + 1) + rng.below(2) as u32;
            while (host.tenants() as u32) < target {
                host.admit(TenantSpec::generate(&mut rng));
            }
        }
        // 5. Overcommit storms: migrate above `migrate_util`, balloon
        // above `storm_util`; any storm pressures the rest of the group.
        let mut stormed = false;
        for i in 0..hosts.len() {
            let util = hosts[i].utilization();
            if util >= cfg.migrate_util && hosts.len() > 1 {
                let dest = least_loaded(&hosts, i);
                if let Some(tenant) = hosts[i].evict_largest() {
                    hosts[dest].admit_migrated(tenant);
                    stormed = true;
                }
            } else if util >= cfg.storm_util {
                stormed |= hosts[i].balloon_largest(0.5, false);
            }
        }
        if stormed {
            for host in &mut hosts {
                let util = host.utilization();
                if util >= cfg.cascade_util && util < cfg.storm_util {
                    host.balloon_largest(0.25, true);
                }
            }
        }
    }
    // Final reduction.
    for (i, host) in hosts.iter_mut().enumerate() {
        let stats = host.sim.machine().stats();
        out.promotions += stats.promotions;
        out.demotions += stats.demotions;
        out.deduped += stats.deduped_zero_pages;
        out.ooms += stats.oom_events;
        if let Some(m) = host.sim.machine().metrics().snapshot() {
            if let Some(h) = m.hist("fault_cycles") {
                out.fault_hist.merge(h);
            }
            out.walk += m.cpu_cycles(Subsystem::Walk);
            out.unhalted += m.unhalted();
        }
        let c = host.counters;
        out.counters.spawned += c.spawned;
        out.counters.finished += c.finished;
        out.counters.balloons += c.balloons;
        out.counters.cascade_balloons += c.cascade_balloons;
        out.counters.migrations_out += c.migrations_out;
        out.counters.migrations_in += c.migrations_in;
        if journaled(i) {
            if let Some(journal) = host.drain_journal() {
                out.journals.push((group * cfg.group_size + i, journal));
            }
        }
    }
    out
}

/// The least-loaded host in the group other than `not` (lowest index on
/// ties) — the migration destination.
fn least_loaded(hosts: &[Host], not: usize) -> usize {
    let mut best = usize::MAX;
    let mut best_util = f64::INFINITY;
    for (j, h) in hosts.iter().enumerate() {
        if j == not {
            continue;
        }
        let u = h.utilization();
        if u < best_util {
            best_util = u;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{NoopHook, ThrottleUnderPressure};
    use hawkeye_kernel::BasePagesOnly;

    fn base_cohort() -> CohortSpec {
        CohortSpec {
            name: "base",
            policy: || Box::new(BasePagesOnly),
            config: |mib| {
                let mut cfg = KernelConfig::small();
                cfg.frames = mib * 256;
                cfg
            },
            hook: || Box::new(NoopHook),
        }
    }

    fn throttled_cohort() -> CohortSpec {
        CohortSpec {
            name: "base+throttle",
            policy: || Box::new(BasePagesOnly),
            config: |mib| {
                let mut cfg = KernelConfig::small();
                cfg.frames = mib * 256;
                cfg
            },
            hook: || Box::new(ThrottleUnderPressure::new(0.55, 0.8)),
        }
    }

    #[test]
    fn diurnal_curve_rises_and_falls() {
        let cfg = FleetConfig::sized(8);
        assert_eq!(cfg.diurnal_target(0), cfg.base_tenants);
        assert_eq!(cfg.diurnal_target(cfg.epochs / 2), cfg.peak_tenants);
        assert_eq!(cfg.diurnal_target(cfg.epochs), cfg.base_tenants);
    }

    #[test]
    fn tiny_fleet_runs_and_reports() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let result = run(&cfg, &[base_cohort(), throttled_cohort()], 2);
        assert_eq!(result.cohorts.len(), 2);
        for slo in &result.cohorts {
            assert_eq!(slo.hosts, 8);
            assert!(slo.faults > 0, "{}: tenants faulted", slo.cohort);
            assert!(slo.tenancy.spawned > 0 && slo.tenancy.finished > 0);
            assert!(slo.p99_fault_us >= slo.p50_fault_us);
            assert!(slo.rss_headroom > 0.0 && slo.rss_headroom < 1.0);
        }
        assert_eq!(
            result.journals.len(),
            2 * cfg.journal_hosts,
            "journaled hosts per cohort"
        );
        assert!(result.journals.iter().all(|(_, j)| !j.records.is_empty()));
    }

    #[test]
    fn observed_runs_collect_without_drifting_the_simulation() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let result = run(&cfg, &[base_cohort()], 2);
        // The accumulators carry real, fully-sampled telemetry.
        assert_eq!(result.obs.len(), 1);
        let acc = &result.obs[0];
        assert_eq!(acc.epochs.len(), cfg.epochs as usize);
        for (e, slot) in acc.epochs.iter().enumerate() {
            assert_eq!(slot.hosts, cfg.hosts as u64, "epoch {e} sampled every host");
            assert!(slot.unhalted_cycles > 0, "epoch {e} charged cycles");
        }
        let sketched: u64 = acc.epochs.iter().map(|s| s.fault_sketch.count()).sum();
        assert!(sketched > 0, "fault windows reach the sketch");
        // No drift: telemetry reads the same windows the SLOs are built
        // from, so it agrees with what the simulation itself reports.
        let slo = &result.cohorts[0];
        assert!(sketched <= slo.faults, "sketch saw {sketched} of {} faults", slo.faults);
        let samples: u64 = acc.epochs.iter().map(|s| s.hosts).sum();
        let util: f64 = acc.epochs.iter().map(|s| s.util_sum).sum();
        let headroom = 1.0 - util / samples as f64;
        assert!(
            (headroom - slo.rss_headroom).abs() < 1e-12,
            "telemetry headroom {headroom} vs SLO {}",
            slo.rss_headroom
        );
    }

    #[test]
    fn fleet_is_deterministic_across_worker_counts() {
        let mut cfg = FleetConfig::sized(16);
        cfg.epochs = 3;
        let a = run(&cfg, &[base_cohort()], 1);
        let b = run(&cfg, &[base_cohort()], 8);
        // Worker count changes nothing: SLOs, journals, and the merged
        // accumulators (byte-compared via the sketch encoding).
        for (x, y) in a.cohorts.iter().zip(&b.cohorts) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_eq!(a.journals, b.journals);
        assert_eq!(a.obs, b.obs);
    }
}
