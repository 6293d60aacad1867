//! `hawkeye-analyze`: offline analysis of bench trace journals.
//!
//! The bench harness writes
//! `target/bench-results/<target>.trace.json` — every scenario's event
//! journal, flattened to `{t, pid, machine, kind, <payload>}` rows.
//! [`hawkeye_trace::parse_trace`] loads those documents back into typed
//! [`hawkeye_trace::TraceRecord`]s; this crate renders per-scenario
//! reports from them:
//!
//! * **Cycle attribution** — the final [`TraceEvent::CycleSample`] per
//!   machine gives the exact subsystem breakdown of `CPU_CLK_UNHALTED`
//!   (Table 4's denominator), printed as a text flamegraph. The residue
//!   (`unhalted − Σ cpu subsystems`) must be zero for every
//!   simulator-driven machine; [`residues`] checks every sample, and the
//!   `--check` CLI flag turns any violation into a failing exit.
//! * **Event latency** — log-bucketed service-time and interarrival
//!   histograms (p50/p90/p99) for fault and promotion events.
//! * **MMU overhead over time** — per-pid overhead series reconstructed
//!   from `QuantumEnd` PMU windows and merged time-sorted per machine.
//!
//! Everything is integer- or shortest-roundtrip-f64-deterministic: the
//! same journal bytes always produce the same report bytes, and journals
//! themselves are byte-identical at any bench worker count.

#![warn(missing_docs)]

pub mod envelope;
pub mod fleet;
pub mod json;
pub mod render;
pub mod summary;

use hawkeye_metrics::{LogHistogram, TimeSeries};
use hawkeye_trace::{ScenarioTrace, TraceDoc, TraceEvent};
use render::{bar, hist_line, pct_line};

/// The trace reader under its historical path, kept for the standalone
/// `perf/` benchmark crate; it lives in [`hawkeye_trace::doc`].
pub use hawkeye_trace::parse_trace;

/// One machine's final cumulative cycle breakdown, read from its last
/// [`TraceEvent::CycleSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Per-scope machine id.
    pub machine: u32,
    /// CPU-ledger cycles per subsystem, in `Subsystem::ALL` order
    /// (walk, fault, zero, copy, scan, compact, dedup, idle).
    pub cpu: [u64; 8],
    /// `CPU_CLK_UNHALTED` at the sample.
    pub unhalted: u64,
    /// Daemon-ledger total at the sample.
    pub daemon: u64,
}

/// Subsystem labels matching [`CycleBreakdown::cpu`] order.
pub const SUBSYSTEMS: [&str; 8] = [
    "walk", "fault", "zero", "copy", "scan", "compact", "dedup", "idle",
];

impl CycleBreakdown {
    fn from_sample(machine: u32, event: &TraceEvent) -> Option<CycleBreakdown> {
        let TraceEvent::CycleSample {
            walk,
            fault,
            zero,
            copy,
            scan,
            compact,
            dedup,
            idle,
            unhalted,
            daemon,
        } = *event
        else {
            return None;
        };
        Some(CycleBreakdown {
            machine,
            cpu: [walk, fault, zero, copy, scan, compact, dedup, idle],
            unhalted,
            daemon,
        })
    }

    /// Sum of the CPU ledger.
    pub fn cpu_total(&self) -> u64 {
        self.cpu.iter().sum()
    }

    /// `unhalted − Σ cpu`: exactly 0 for simulator-driven machines.
    pub fn residue(&self) -> i128 {
        self.unhalted as i128 - self.cpu_total() as i128
    }
}

/// The final cycle breakdown of every machine that emitted a
/// `cycle_sample`, in machine-id order.
pub fn breakdowns(s: &ScenarioTrace) -> Vec<CycleBreakdown> {
    let mut last: Vec<CycleBreakdown> = Vec::new();
    for r in &s.records {
        if let Some(b) = CycleBreakdown::from_sample(r.machine, &r.event) {
            match last.iter_mut().find(|x| x.machine == r.machine) {
                Some(slot) => *slot = b,
                None => last.push(b),
            }
        }
    }
    last.sort_by_key(|b| b.machine);
    last
}

/// Service-time and interarrival histograms for one event kind.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// Cycles charged per event (the `cycles` payload field).
    pub service: LogHistogram,
    /// Simulated cycles between consecutive events on the same machine.
    pub interarrival: LogHistogram,
}

/// Latency statistics for `kind` (`"fault"` or `"promote"`) across one
/// scenario. Interarrival is measured per machine so co-hosted machines
/// (virtualization scenarios) don't contaminate each other's gaps.
pub fn latency(s: &ScenarioTrace, kind: &str) -> LatencyStats {
    let mut stats = LatencyStats::default();
    let mut last_at: Vec<(u32, u64)> = Vec::new();
    for r in &s.records {
        let cycles = match (&r.event, kind) {
            (TraceEvent::Fault { cycles, .. }, "fault") => *cycles,
            (TraceEvent::Promote { cycles, .. }, "promote") => *cycles,
            _ => continue,
        };
        stats.service.observe(cycles);
        match last_at.iter_mut().find(|(m, _)| *m == r.machine) {
            Some((_, prev)) => {
                stats.interarrival.observe(r.at.get().saturating_sub(*prev));
                *prev = r.at.get();
            }
            None => last_at.push((r.machine, r.at.get())),
        }
    }
    stats
}

/// MMU overhead over time for one scenario, reconstructed from
/// `QuantumEnd` PMU windows: per-(machine, pid) series of
/// `(load_walk + store_walk) / unhalted` (as a percentage), merged
/// time-sorted into one series. Empty windows are skipped.
pub fn mmu_overhead_series(s: &ScenarioTrace) -> TimeSeries {
    let mut per_pid: Vec<((u32, u32), TimeSeries)> = Vec::new();
    for r in &s.records {
        let TraceEvent::QuantumEnd {
            load_walk,
            store_walk,
            unhalted,
            ..
        } = r.event
        else {
            continue;
        };
        if unhalted == 0 {
            continue;
        }
        let pct = (load_walk + store_walk) as f64 * 100.0 / unhalted as f64;
        let key = (r.machine, r.pid);
        let series = match per_pid.iter_mut().find(|(k, _)| *k == key) {
            Some((_, series)) => series,
            None => {
                per_pid.push((key, TimeSeries::new(format!("m{}.pid{}", key.0, key.1))));
                &mut per_pid.last_mut().expect("just pushed").1
            }
        };
        series.push(r.at.as_secs(), pct);
    }
    per_pid.sort_by_key(|(k, _)| *k);
    per_pid
        .into_iter()
        .map(|(_, s)| s)
        .reduce(|acc, s| acc.merge_sorted(&s, "mmu_overhead_pct"))
        .unwrap_or_else(|| TimeSeries::new("mmu_overhead_pct"))
}

/// One simulated core's accumulated contention, reconstructed from the
/// `contention` records a multi-core run journals at each drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionRow {
    /// Simulated core id.
    pub core: u64,
    /// Core role tag: 0 = app, 1 = khugepaged, 2 = pre-zero daemon.
    pub role: u64,
    /// Page-state lock + allocator-shard acquisitions.
    pub acquisitions: u64,
    /// Modeled CAS retries while the resource was held elsewhere.
    pub cas_retries: u64,
    /// Virtual cycles stalled waiting on holders.
    pub stall_cycles: u64,
}

impl ContentionRow {
    /// Human-readable role name.
    pub fn role_label(&self) -> &'static str {
        match self.role {
            0 => "app",
            1 => "khugepaged",
            2 => "prezero",
            _ => "?",
        }
    }
}

/// Per-core contention totals for one scenario, in core order. Multiple
/// drains (chunked runs) accumulate; scenarios without `contention`
/// records (every `cores = 1` run) return an empty table.
pub fn contention(s: &ScenarioTrace) -> Vec<ContentionRow> {
    let mut rows: Vec<ContentionRow> = Vec::new();
    for r in &s.records {
        let TraceEvent::Contention {
            core,
            role,
            acquisitions,
            cas_retries,
            stall_cycles,
        } = r.event
        else {
            continue;
        };
        let row = match rows.iter_mut().find(|c| c.core == core) {
            Some(row) => row,
            None => {
                rows.push(ContentionRow {
                    core,
                    role,
                    ..Default::default()
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.role = role;
        row.acquisitions += acquisitions;
        row.cas_retries += cas_retries;
        row.stall_cycles += stall_cycles;
    }
    rows.sort_by_key(|c| c.core);
    rows
}

/// Residue audit over *every* `cycle_sample` in a document (not just the
/// final one per machine): samples with `unhalted == 0` are skipped (the
/// virtualization host machine is driven outside the scheduler and never
/// records unhalted cycles), everything else must attribute exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidueReport {
    /// `cycle_sample` events inspected.
    pub samples: u64,
    /// Violations: `(scenario, machine, residue)`.
    pub nonzero: Vec<(String, u32, i128)>,
}

/// Audits every cycle sample in the document. See [`ResidueReport`].
pub fn residues(doc: &TraceDoc) -> ResidueReport {
    let mut report = ResidueReport::default();
    for s in &doc.scenarios {
        for r in &s.records {
            let Some(b) = CycleBreakdown::from_sample(r.machine, &r.event) else {
                continue;
            };
            report.samples += 1;
            if b.unhalted == 0 {
                continue;
            }
            let residue = b.residue();
            if residue != 0
                && !report
                    .nonzero
                    .iter()
                    .any(|(n, m, res)| n == &s.name && *m == b.machine && *res == residue)
            {
                report.nonzero.push((s.name.clone(), b.machine, residue));
            }
        }
    }
    report
}

/// Renders the full deterministic text report for one document.
pub fn report(doc: &TraceDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!("== hawkeye-analyze: {} ==\n", doc.target));
    for s in &doc.scenarios {
        out.push_str(&format!(
            "\n-- {} ({} events{}) --\n",
            s.name,
            s.records.len(),
            if s.dropped > 0 {
                format!(", {} dropped by the ring", s.dropped)
            } else {
                String::new()
            },
        ));
        let breakdowns = breakdowns(s);
        if breakdowns.is_empty() {
            out.push_str("  cycle attribution: no cycle_sample events\n");
        }
        for b in &breakdowns {
            out.push_str(&format!(
                "  machine {}: unhalted={} residue={} daemon={}\n",
                b.machine,
                b.unhalted,
                b.residue(),
                b.daemon,
            ));
            for (label, cycles) in SUBSYSTEMS.iter().zip(b.cpu.iter()) {
                pct_line(&mut out, label, *cycles, b.unhalted);
            }
        }
        out.push_str("  latency (cycles):\n");
        for kind in ["fault", "promote"] {
            let l = latency(s, kind);
            hist_line(&mut out, &format!("{kind} service"), &l.service);
            hist_line(&mut out, &format!("{kind} gap"), &l.interarrival);
        }
        let cont = contention(s);
        if !cont.is_empty() {
            out.push_str("  contention (deterministic multi-core replay):\n");
            let (mut stall_all, mut stall_daemon) = (0u64, 0u64);
            for c in &cont {
                stall_all += c.stall_cycles;
                if c.role != 0 {
                    stall_daemon += c.stall_cycles;
                }
                out.push_str(&format!(
                    "    core {} {:<10} acq={:>9} cas_retries={:>8} stall={:>12}cyc\n",
                    c.core,
                    c.role_label(),
                    c.acquisitions,
                    c.cas_retries,
                    c.stall_cycles,
                ));
            }
            if stall_all > 0 {
                out.push_str(&format!(
                    "    daemon stall: {}cyc ({:.1}% of all stall)\n",
                    stall_daemon,
                    100.0 * stall_daemon as f64 / stall_all as f64,
                ));
            }
        }
        let series = mmu_overhead_series(s);
        if series.is_empty() {
            out.push_str("  mmu overhead: no quantum_end windows\n");
        } else {
            out.push_str(&format!(
                "  mmu overhead over time ({} windows):\n",
                series.len()
            ));
            for sample in series.downsample(8) {
                out.push_str(&format!(
                    "    t={:>10.4}s  {:>7.3}%  |{}\n",
                    sample.secs,
                    sample.value,
                    bar(sample.value / 100.0)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_metrics::Cycles;
    use hawkeye_trace::TraceRecord;

    fn rec(at: u64, pid: u32, machine: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Cycles::new(at),
            pid,
            machine,
            event,
        }
    }

    fn sample(walk: u64, idle: u64, unhalted: u64) -> TraceEvent {
        TraceEvent::CycleSample {
            walk,
            fault: 0,
            zero: 0,
            copy: 0,
            scan: 0,
            compact: 0,
            dedup: 0,
            idle,
            unhalted,
            daemon: 0,
        }
    }

    fn doc(records: Vec<TraceRecord>) -> TraceDoc {
        TraceDoc {
            target: "t".into(),
            scenarios: vec![ScenarioTrace {
                name: "s".into(),
                dropped: 0,
                records,
            }],
        }
    }

    #[test]
    fn breakdowns_keep_last_sample_per_machine() {
        let d = doc(vec![
            rec(10, 0, 0, sample(1, 1, 2)),
            rec(10, 0, 1, sample(5, 5, 10)),
            rec(20, 0, 0, sample(3, 7, 10)),
        ]);
        let b = breakdowns(&d.scenarios[0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].machine, 0);
        assert_eq!(b[0].cpu[0], 3, "last sample wins");
        assert_eq!(b[0].residue(), 0);
        assert_eq!(b[1].unhalted, 10);
    }

    #[test]
    fn residues_flag_unattributed_cycles_and_skip_hosts() {
        let d = doc(vec![
            rec(10, 0, 0, sample(1, 1, 3)),
            rec(20, 0, 0, sample(1, 1, 3)),
            // A host-style machine: charges but no unhalted — skipped.
            rec(20, 0, 1, sample(9, 0, 0)),
        ]);
        let r = residues(&d);
        assert_eq!(r.samples, 3);
        assert_eq!(
            r.nonzero,
            vec![("s".to_string(), 0, 1)],
            "duplicates collapse"
        );
    }

    #[test]
    fn latency_tracks_service_and_gaps_per_machine() {
        let fault = |c| TraceEvent::Fault {
            vpn: 1,
            huge: false,
            cow: false,
            cycles: c,
        };
        let d = doc(vec![
            rec(100, 1, 0, fault(1000)),
            rec(150, 1, 1, fault(2000)),
            rec(400, 1, 0, fault(1000)),
        ]);
        let l = latency(&d.scenarios[0], "fault");
        assert_eq!(l.service.count(), 3);
        // One gap only: machine 0's 100→400; machine 1 saw a single event.
        assert_eq!(l.interarrival.count(), 1);
        assert_eq!(l.interarrival.max(), 300);
        assert_eq!(latency(&d.scenarios[0], "promote").service.count(), 0);
    }

    #[test]
    fn mmu_series_merges_pids_time_sorted() {
        let qe = |lw, un| TraceEvent::QuantumEnd {
            load_walk: lw,
            store_walk: 0,
            unhalted: un,
            walks: 1,
        };
        let d = doc(vec![
            rec(2_300_000, 1, 0, qe(10, 100)),
            rec(4_600_000, 2, 0, qe(50, 100)),
            rec(6_900_000, 1, 0, qe(20, 100)),
            rec(9_200_000, 1, 0, qe(0, 0)), // empty window: skipped
        ]);
        let s = mmu_overhead_series(&d.scenarios[0]);
        assert_eq!(s.len(), 3);
        let secs: Vec<f64> = s.samples().iter().map(|x| x.secs).collect();
        assert!(
            secs.windows(2).all(|w| w[0] <= w[1]),
            "time-sorted: {secs:?}"
        );
        assert_eq!(s.samples()[1].value, 50.0);
    }

    #[test]
    fn report_is_deterministic_and_mentions_every_section() {
        let d = doc(vec![
            rec(10, 0, 0, sample(400, 600, 1000)),
            rec(
                15,
                1,
                0,
                TraceEvent::Fault {
                    vpn: 1,
                    huge: false,
                    cow: false,
                    cycles: 900,
                },
            ),
            rec(
                20,
                1,
                0,
                TraceEvent::QuantumEnd {
                    load_walk: 10,
                    store_walk: 5,
                    unhalted: 100,
                    walks: 2,
                },
            ),
        ]);
        let r1 = report(&d);
        let r2 = report(&d);
        assert_eq!(r1, r2);
        for needle in [
            "hawkeye-analyze: t",
            "machine 0",
            "walk",
            "fault service",
            "mmu overhead",
        ] {
            assert!(r1.contains(needle), "missing {needle:?} in:\n{r1}");
        }
    }
}
