//! The paper's expectations: one [`Section`] builder per row of
//! DESIGN.md §4's experiment index.
//!
//! Each builder derives *scale-free* comparison metrics (ratios,
//! percentages, counts) from the target's summary rows, pairs them with
//! the paper's published number where one exists at a comparable scale,
//! and attaches the tolerance band calibrated against the recorded
//! reference run (EXPERIMENTS.md). Bands gate `hawkeye-report --check`;
//! the paper delta column is informational (see the crate docs for why
//! the two are deliberately independent).

use hawkeye_analyze::render::{bar, pct_line, sparkline};
use hawkeye_analyze::summary::SummaryDoc;
use hawkeye_analyze::{mmu_overhead_series, SUBSYSTEMS};
use hawkeye_metrics::json::Json;
use hawkeye_metrics::Reduce;
use hawkeye_metrics::TimeSeries;
use hawkeye_trace::{TraceDoc, TraceEvent};

use crate::{Band, Check, Figure, Section, TargetData};

/// Builds every section, in input (suite) order.
pub fn sections(data: &[TargetData]) -> Vec<Section> {
    data.iter().map(section).collect()
}

type Body = (Vec<Check>, Vec<Figure>, Vec<String>);

/// Builds the section for one loaded target.
pub fn section(d: &TargetData) -> Section {
    let (checks, figures, notes) = match d.name {
        "table1_fault_latency" => table1(d),
        "table2_tlb_sensitivity" => table2(d),
        "table3_npb_characteristics" => table3(d),
        "table4_pmu_methodology" => table4(d),
        "table7_bloat_recovery" => table7(d),
        "table8_fast_faults" => table8(d),
        "table9_pmu_vs_g" => table9(d),
        "fig1_redis_bloat" => fig1(d),
        "fig3_first_nonzero_byte" => fig3(d),
        "fig4_access_map" => fig4(d),
        "fig5_promotion_efficiency" => fig5(d),
        "fig6_promotion_timeline" => fig6(d),
        "fig7_table5_identical_workloads" => fig7(d),
        "fig8_heterogeneous" => fig8(d),
        "fig9_virtualized" => fig9(d),
        "fig10_prezero_interference" => fig10(d),
        "fig11_overcommit" => fig11(d),
        "multicore_contention" => multicore(d),
        "fleet_slo" => fleet_slo(d),
        "oltp_btree" => oltp_btree(d),
        "hpc_stencil" => hpc_stencil(d),
        "adversarial" => adversarial(d),
        _ => (
            Vec::new(),
            Vec::new(),
            vec!["no expectations registered".into()],
        ),
    };
    Section {
        target: d.name,
        paper_ref: d.paper_ref,
        title: d.summary.title.clone(),
        checks,
        figures,
        notes,
        warnings: drop_warnings(d),
    }
}

/// Trace ring-buffer overflow is a data-quality event, not a footnote:
/// any analysis derived from the journal (latency histograms, cycle
/// attribution) silently under-counts when the bounded ring overwrote
/// records before the drain. Surface every overflowing scenario loudly.
fn drop_warnings(d: &TargetData) -> Vec<String> {
    let Some(trace) = &d.trace else {
        return Vec::new();
    };
    trace
        .scenarios
        .iter()
        .filter(|s| s.dropped > 0)
        .map(|s| {
            format!(
                "trace ring buffer overflowed in scenario `{}`: {} event(s) dropped — \
                 journal-derived numbers under-count (raise the ring capacity or trim \
                 the event set)",
                s.name, s.dropped,
            )
        })
        .collect()
}

// ---- extraction helpers -------------------------------------------------

fn row<'a>(d: &'a SummaryDoc, key: &str, label: &str) -> Option<&'a Json> {
    d.rows
        .iter()
        .find(|r| r.get(key).and_then(Json::as_str) == Some(label))
}

fn num(d: &SummaryDoc, key: &str, label: &str, field: &str) -> Option<f64> {
    row(d, key, label)?.get(field)?.as_f64()
}

fn num2(
    d: &SummaryDoc,
    (k1, l1): (&str, &str),
    (k2, l2): (&str, &str),
    field: &str,
) -> Option<f64> {
    d.rows
        .iter()
        .find(|r| {
            r.get(k1).and_then(Json::as_str) == Some(l1)
                && r.get(k2).and_then(Json::as_str) == Some(l2)
        })?
        .get(field)?
        .as_f64()
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if b != 0.0 => Some(a / b),
        _ => None,
    }
}

// ---- figure helpers -----------------------------------------------------

/// Renders the summary's cycle-attribution section as a per-scenario CPU
/// ledger (the Table 1/4 "where did every cycle go" reproduction).
fn cycle_ledger(caption: &str, d: &SummaryDoc) -> Option<Figure> {
    let mut body = String::new();
    for sc in &d.cycles {
        for m in &sc.machines {
            if m.unhalted == 0 {
                continue;
            }
            body.push_str(&format!(
                "{} (machine {}): unhalted={}\n",
                sc.scenario, m.machine, m.unhalted
            ));
            for (label, cycles) in SUBSYSTEMS.iter().zip(m.cpu.iter()) {
                pct_line(&mut body, label, *cycles, m.unhalted);
            }
        }
    }
    (!body.is_empty()).then(|| Figure {
        caption: caption.into(),
        body,
    })
}

/// Bins a time series into `bins` fixed-width windows via
/// [`TimeSeries::resample`] and lays the reduced values back out on the
/// bin grid (empty bins stay zero) — the sparkline x-axis is time.
fn binned(series: &TimeSeries, bins: usize, reduce: Reduce) -> Vec<f64> {
    let samples = series.samples();
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    let span = (last.secs - first.secs).max(f64::MIN_POSITIVE);
    let width = span / bins as f64;
    let mut values = vec![0.0; bins];
    for s in series.resample(bins, reduce) {
        let idx = (((s.secs - first.secs) / width) as usize).min(bins - 1);
        values[idx] = s.value;
    }
    values
}

/// Per-scenario promotion-count timeline sparklines from the trace
/// journal (Fig 6's promotion timelines as event data).
fn promote_timeline(caption: &str, trace: &TraceDoc, bins: usize) -> Option<Figure> {
    let mut body = String::new();
    for s in &trace.scenarios {
        let mut series = TimeSeries::new("promotes");
        for r in &s.records {
            if let TraceEvent::Promote { .. } = r.event {
                series.push(r.at.as_secs(), 1.0);
            }
        }
        if series.is_empty() {
            body.push_str(&format!("{:<24} (no promotions)\n", s.name));
        } else {
            body.push_str(&format!(
                "{:<24} |{}| n={}\n",
                s.name,
                sparkline(&binned(&series, bins, Reduce::Sum)),
                series.len()
            ));
        }
    }
    (!body.is_empty()).then(|| Figure {
        caption: caption.into(),
        body,
    })
}

/// Per-scenario MMU-overhead-over-time sparklines reconstructed from
/// `quantum_end` PMU windows in the trace journal.
fn mmu_window_timeline(caption: &str, trace: &TraceDoc, bins: usize) -> Option<Figure> {
    let mut body = String::new();
    for s in &trace.scenarios {
        let series = mmu_overhead_series(s);
        if series.is_empty() {
            continue;
        }
        let values = binned(&series, bins, Reduce::Mean);
        let last = series.samples().last().map_or(0.0, |x| x.value);
        body.push_str(&format!(
            "{:<32} |{}| windows={} last={last:.2}%\n",
            s.name,
            sparkline(&values),
            series.len()
        ));
    }
    (!body.is_empty()).then(|| Figure {
        caption: caption.into(),
        body,
    })
}

/// A labelled horizontal bar chart, scaled to the largest value.
fn bars(caption: &str, items: &[(String, f64)]) -> Option<Figure> {
    let max = items.iter().map(|x| x.1).fold(0.0f64, f64::max);
    let mut body = String::new();
    for (label, v) in items {
        let frac = if max > 0.0 { v / max } else { 0.0 };
        body.push_str(&format!(
            "{:<32} {:>10} |{}\n",
            label,
            crate::fmt_num(*v),
            bar(frac)
        ));
    }
    (!body.is_empty()).then(|| Figure {
        caption: caption.into(),
        body,
    })
}

// ---- per-target expectations --------------------------------------------

fn table1(d: &TargetData) -> Body {
    let s = &d.summary;
    let faults = |label| num(s, "config", label, "faults");
    let lat = |label| num(s, "config", label, "avg_fault_us");
    let total = |label| num(s, "config", label, "total_secs");
    let checks = vec![
        Check::new(
            "fault reduction, Linux-2MB vs 4KB (×)",
            Some(509.0),
            ratio(faults("Linux-4KB"), faults("Linux-2MB")),
            Band::around(512.0, 0.02),
        ),
        Check::new(
            "per-fault latency ratio, 2MB vs 4KB (×)",
            Some(133.0),
            ratio(lat("Linux-2MB"), lat("Linux-4KB")),
            Band::around(131.0, 0.05),
        ),
        Check::new(
            "total-time speedup, 2MB vs 4KB (×)",
            Some(4.3),
            ratio(total("Linux-4KB"), total("Linux-2MB")),
            Band::around(3.3, 0.05),
        ),
        Check::new(
            "total-time speedup, HawkEye-G vs sync 2MB (×)",
            Some(5.7),
            ratio(total("Linux-2MB"), total("HawkEye-G")),
            Band::around(1.23, 0.1),
        ),
    ];
    let figures = cycle_ledger("Cycle ledger per config (CPU-side attribution):", s)
        .into_iter()
        .collect();
    let notes = vec![
        "HawkEye's advantage over sync-2MB is smaller than the paper's 5.7× \
         because back-to-back 160 MiB allocation bursts outrun the \
         rate-limited pre-zeroing daemon (EXPERIMENTS.md divergence 3); \
         Table 8's spin-up shows the paper's 13 µs-class behaviour."
            .into(),
    ];
    (checks, figures, notes)
}

fn table2(d: &TargetData) -> Body {
    let s = &d.summary;
    let mismatches = s
        .rows
        .iter()
        .filter(|r| r.get("suite").and_then(Json::as_str) != Some("TOTAL"))
        .filter(|r| {
            r.get("sensitive").and_then(Json::as_f64) != r.get("paper").and_then(Json::as_f64)
        })
        .count() as f64;
    let checks = vec![
        Check::new(
            "TLB-sensitive applications (count)",
            Some(15.0),
            num(s, "suite", "TOTAL", "sensitive"),
            Band::exact(15.0),
        ),
        Check::new(
            "applications surveyed (count)",
            Some(79.0),
            num(s, "suite", "TOTAL", "total"),
            Band::exact(79.0),
        ),
        Check::new(
            "per-suite misclassifications (count)",
            Some(0.0),
            Some(mismatches),
            Band::exact(0.0),
        ),
    ];
    (checks, Vec::new(), Vec::new())
}

fn table3(d: &TargetData) -> Body {
    let s = &d.summary;
    let checks = vec![
        Check::new(
            "cg.D MMU overhead at 4KB (fraction)",
            Some(0.39),
            num(s, "workload", "cg.D", "mmu_overhead_4k"),
            Band::around(0.22, 0.15),
        ),
        Check::new(
            "cg.D native speedup from 2MB (×)",
            Some(1.62),
            num(s, "workload", "cg.D", "native_speedup"),
            Band::around(1.9, 0.1),
        ),
        Check::new(
            "cg.D virtualized speedup from 2MB (×)",
            Some(2.7),
            num(s, "workload", "cg.D", "virtual_speedup"),
            Band::around(5.2, 0.15),
        ),
        Check::new(
            "mg.D MMU overhead at 4KB (fraction)",
            Some(0.01),
            num(s, "workload", "mg.D", "mmu_overhead_4k"),
            Band::new(0.0, 0.03),
        ),
    ];
    let notes = vec![
        "Virtualized factors run larger than the paper's because the \
         nested-walk surcharge weighs more against scaled compute time \
         (EXPERIMENTS.md divergence 6)."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn table4(d: &TargetData) -> Body {
    let s = &d.summary;
    let consistency = |label: &str| {
        let stored = num(s, "workload", label, "mmu_overhead")?;
        let c12 = num(s, "workload", label, "load_walk_cycles")?
            + num(s, "workload", label, "store_walk_cycles")?;
        let c3 = num(s, "workload", label, "unhalted_cycles")?;
        if c3 == 0.0 {
            return None;
        }
        Some(stored / (c12 / c3))
    };
    let checks = vec![
        Check::new(
            "random scan: overhead ÷ (C1+C2)/C3 (must be 1)",
            Some(1.0),
            consistency("random-192MB"),
            Band::exact(1.0),
        ),
        Check::new(
            "sequential scan: overhead ÷ (C1+C2)/C3 (must be 1)",
            Some(1.0),
            consistency("sequential-192MB"),
            Band::exact(1.0),
        ),
        Check::new(
            "random scan MMU overhead (fraction)",
            None,
            num(s, "workload", "random-192MB", "mmu_overhead"),
            Band::around(0.222, 0.1),
        ),
        Check::new(
            "sequential scan MMU overhead (fraction)",
            None,
            num(s, "workload", "sequential-192MB", "mmu_overhead"),
            Band::new(0.0, 0.03),
        ),
    ];
    let figures = cycle_ledger("Cycle ledger per scan pattern:", s)
        .into_iter()
        .collect();
    let notes = vec![
        "The paper publishes the formula, not absolute numbers, for this \
         table: the exact-1 consistency gates pin `overhead == (C1+C2)/C3` \
         through the full write→parse round trip."
            .into(),
    ];
    (checks, figures, notes)
}

fn table7(d: &TargetData) -> Body {
    let s = &d.summary;
    let mem = |k, t| num2(s, ("kernel", k), ("self_tuning", t), "memory_mib");
    let kops = |k, t| num2(s, ("kernel", k), ("self_tuning", t), "throughput_kops");
    let checks = vec![
        Check::new(
            "bloat, Linux-2MB vs 4KB memory (×)",
            Some(2.05),
            ratio(mem("Linux-2MB", "No"), mem("Linux-4KB", "No")),
            Band::around(2.46, 0.1),
        ),
        Check::new(
            "HawkEye under pressure vs 4KB memory (×)",
            Some(1.0),
            ratio(mem("HawkEye-G", "Yes (pressure)"), mem("Linux-4KB", "No")),
            Band::around(1.1, 0.1),
        ),
        Check::new(
            "HawkEye no-pressure throughput vs 2MB (×)",
            Some(1.0),
            ratio(
                kops("HawkEye-G", "Yes (no pressure)"),
                kops("Linux-2MB", "No"),
            ),
            Band::around(1.0, 0.05),
        ),
        Check::new(
            "HawkEye throughput retained under pressure (×)",
            Some(0.93),
            ratio(
                kops("HawkEye-G", "Yes (pressure)"),
                kops("HawkEye-G", "Yes (no pressure)"),
            ),
            Band::around(0.955, 0.05),
        ),
    ];
    (checks, Vec::new(), Vec::new())
}

fn table8(d: &TargetData) -> Body {
    let s = &d.summary;
    const KVM: &str = "KVM spin-up (s)";
    let cell = |w, p| num(s, "workload", w, p);
    let policies = [
        "Linux-4KB",
        "Linux-2MB",
        "Ingens-90%",
        "HawkEye-4KB",
        "HawkEye-G",
    ];
    let ingens_worst = {
        let times: Vec<Option<f64>> = policies.iter().map(|p| cell(KVM, p)).collect();
        let ingens = cell(KVM, "Ingens-90%");
        match (ingens, times.iter().copied().collect::<Option<Vec<f64>>>()) {
            (Some(i), Some(all)) => Some(if all.iter().all(|t| i >= *t) {
                1.0
            } else {
                0.0
            }),
            _ => None,
        }
    };
    let checks = vec![
        Check::new(
            "KVM spin-up speedup, HawkEye-G vs sync 2MB (×)",
            Some(13.8),
            ratio(cell(KVM, "Linux-2MB"), cell(KVM, "HawkEye-G")),
            Band::around(35.0, 0.2),
        ),
        Check::new(
            "Redis 2MB-values throughput gain, HawkEye-G vs 4KB (×)",
            Some(2.37),
            ratio(
                cell("Redis 2MB-values (Kops/s)", "HawkEye-G"),
                cell("Redis 2MB-values (Kops/s)", "Linux-4KB"),
            ),
            Band::around(15.3, 0.15),
        ),
        Check::new(
            "Ingens slowest on KVM spin-up (1 = yes)",
            Some(1.0),
            ingens_worst,
            Band::exact(1.0),
        ),
    ];
    let notes = vec!["Absolute spin-up times are ~100× smaller than the paper's \
         (scaled footprints); the sync-2MB-vs-HawkEye gap is larger \
         because an idle pre-zeroed pool serves the whole burst \
         (EXPERIMENTS.md Table 8 row)."
        .into()];
    (checks, Vec::new(), notes)
}

fn table9(d: &TargetData) -> Body {
    let s = &d.summary;
    let field = |w, f| num(s, "workload", w, f);
    let checks = vec![
        Check::new(
            "random scan speedup under PMU (×)",
            Some(1.77),
            field("random(192MB)", "pmu_speedup"),
            Band::around(1.19, 0.1),
        ),
        Check::new(
            "random scan speedup under G (×)",
            Some(1.41),
            field("random(192MB)", "g_speedup"),
            Band::around(1.15, 0.1),
        ),
        Check::new(
            "cg.D speedup under PMU (×)",
            Some(1.62),
            field("cg.D(128MB)", "pmu_speedup"),
            Band::around(1.42, 0.1),
        ),
        Check::new(
            "sequential scan speedup under PMU (×, ≈1 = untouched)",
            Some(1.0),
            field("sequential(192MB)", "pmu_speedup"),
            Band::around(1.02, 0.05),
        ),
    ];
    let figures = d
        .trace
        .as_ref()
        .and_then(|t| {
            mmu_window_timeline(
                "MMU overhead over time from `quantum_end` PMU windows \
                 (mean per bin):",
                t,
                48,
            )
        })
        .into_iter()
        .collect();
    let notes = vec![
        "PMU ≥ G holds but the gap is smaller than the paper's: our \
         access-coverage sampling is windowed, which already discounts \
         prefetch-friendly sequential scans (EXPERIMENTS.md divergence 5)."
            .into(),
    ];
    (checks, figures, notes)
}

fn fig1(d: &TargetData) -> Body {
    let s = &d.summary;
    let checks = vec![
        Check::new(
            "HawkEye-G bloat recovered (MiB)",
            None,
            num(s, "kernel", "HawkEye-G", "bloat_recovered_mib"),
            Band::around(174.0, 0.1),
        ),
        Check::new(
            "HawkEye-G final RSS (MiB)",
            None,
            num(s, "kernel", "HawkEye-G", "final_rss_mib"),
            Band::around(145.0, 0.1),
        ),
        Check::new(
            "Ingens peak vs HawkEye-G peak RSS (×, <1 = less bloat)",
            None,
            ratio(
                num(s, "kernel", "Ingens", "peak_rss_mib"),
                num(s, "kernel", "HawkEye-G", "peak_rss_mib"),
            ),
            Band::new(0.3, 1.1),
        ),
    ];
    let notes = vec![
        "Paper shape: Linux and Ingens OOM in phase P3 while HawkEye \
         recovers zero-page bloat and completes; our Ingens is slightly \
         more conservative than the paper's and squeaks through \
         (EXPERIMENTS.md Fig 1 row)."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn fig3(d: &TargetData) -> Body {
    let s = &d.summary;
    let checks = vec![Check::new(
        "mean first non-zero byte, all families (B)",
        Some(9.11),
        num(s, "family", "AVERAGE", "mean_first_nonzero_byte"),
        Band::around(7.4, 0.1),
    )];
    (checks, Vec::new(), Vec::new())
}

fn fig4(d: &TargetData) -> Body {
    let s = &d.summary;
    let matches = s.rows.first().map(|r| {
        let ours = r.get("promotion_order").and_then(Json::as_str);
        let paper = r.get("paper_order").and_then(Json::as_str);
        if ours.is_some() && ours == paper {
            1.0
        } else {
            0.0
        }
    });
    let checks = vec![Check::new(
        "promotion order matches the paper's A1..A3 sequence (1 = yes)",
        Some(1.0),
        matches,
        Band::exact(1.0),
    )];
    (checks, Vec::new(), Vec::new())
}

fn fig5(d: &TargetData) -> Body {
    let s = &d.summary;
    let speed = |w, p| num2(s, ("workload", w), ("policy", p), "speedup_vs_4k");
    let saved = |w, p| num2(s, ("workload", w), ("policy", p), "saved_ms_per_promotion");
    let checks = vec![
        Check::new(
            "XSBench speedup, HawkEye-PMU vs never-promote (×)",
            Some(1.22),
            speed("xsbench", "HawkEye-PMU"),
            Band::around(2.2, 0.1),
        ),
        Check::new(
            "XSBench time saved per promotion, PMU vs Linux (×)",
            Some(44.0),
            ratio(
                saved("xsbench", "HawkEye-PMU"),
                saved("xsbench", "Linux-2MB"),
            ),
            Band::around(4.7, 0.15),
        ),
        Check::new(
            "XSBench time saved per promotion, G vs Linux (×)",
            Some(6.7),
            ratio(saved("xsbench", "HawkEye-G"), saved("xsbench", "Linux-2MB")),
            Band::around(1.88, 0.15),
        ),
    ];
    let policies = ["Linux-2MB", "Ingens", "HawkEye-PMU", "HawkEye-G"];
    let items: Vec<(String, f64)> = policies
        .iter()
        .filter_map(|p| speed("xsbench", p).map(|v| (format!("xsbench {p}"), v)))
        .collect();
    let figures = bars(
        "XSBench speedup vs never-promote, by promotion policy:",
        &items,
    )
    .into_iter()
    .collect();
    let notes = vec![
        "Speedups exceed the paper's 22 % because fragmentation costs \
         relatively more at our compressed scale (EXPERIMENTS.md \
         divergence 2); the policy ordering PMU > G > Linux > Ingens is \
         the reproduced claim."
            .into(),
    ];
    (checks, figures, notes)
}

fn fig6(d: &TargetData) -> Body {
    let s = &d.summary;
    let over = |w, p| num2(s, ("workload", w), ("policy", p), "final_mmu_overhead");
    let promos = |w, p| num2(s, ("workload", w), ("policy", p), "promotions");
    let checks = vec![
        Check::new(
            "xsbench final MMU overhead, HawkEye-G (fraction)",
            None,
            over("xsbench", "HawkEye-G"),
            Band::new(0.0, 0.1),
        ),
        Check::new(
            "xsbench final overhead, Linux-2MB vs HawkEye-G (×)",
            None,
            ratio(over("xsbench", "Linux-2MB"), over("xsbench", "HawkEye-G")),
            Band::new(1.0, 1e6),
        ),
        Check::new(
            "xsbench promotions under HawkEye-G (count)",
            None,
            promos("xsbench", "HawkEye-G"),
            Band::new(1.0, 1e6),
        ),
    ];
    let figures = d
        .trace
        .as_ref()
        .and_then(|t| {
            promote_timeline(
                "Promotion events over time (count per bin) — HawkEye \
                 front-loads, Linux/Ingens trickle:",
                t,
                48,
            )
        })
        .into_iter()
        .collect();
    (checks, figures, Vec::new())
}

fn fig7(d: &TargetData) -> Body {
    let s = &d.summary;
    let avg = |p| num2(s, ("workload", "graph500"), ("policy", p), "avg_speedup");
    let checks = vec![
        Check::new(
            "graph500 ×4 avg speedup, Linux-2MB (×)",
            Some(1.02),
            avg("Linux-2MB"),
            Band::around(1.20, 0.1),
        ),
        Check::new(
            "graph500 ×4 avg speedup, Ingens (×)",
            Some(1.01),
            avg("Ingens"),
            Band::around(1.10, 0.1),
        ),
        Check::new(
            "graph500 ×4 avg speedup, HawkEye-PMU (×)",
            Some(1.14),
            avg("HawkEye-PMU"),
            Band::around(1.53, 0.1),
        ),
        Check::new(
            "graph500 ×4 avg speedup, HawkEye-G (×)",
            Some(1.13),
            avg("HawkEye-G"),
            Band::around(1.52, 0.1),
        ),
    ];
    let notes = vec![
        "Factors run larger than the paper's (divergence 2) but the \
         ordering HawkEye > Linux > Ingens and HawkEye's fairness across \
         instances reproduce."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn fig8(d: &TargetData) -> Body {
    let s = &d.summary;
    let before = |w, p| num2(s, ("workload", w), ("policy", p), "speedup_before");
    let after = |w, p| num2(s, ("workload", w), ("policy", p), "speedup_after");
    let checks = vec![
        Check::new(
            "cg + Redis speedup, HawkEye-G, app first (×)",
            None,
            before("cg", "HawkEye-G"),
            Band::around(1.6, 0.15),
        ),
        Check::new(
            "cg + Redis speedup, HawkEye-G, Redis first (×)",
            None,
            after("cg", "HawkEye-G"),
            Band::around(1.6, 0.15),
        ),
        Check::new(
            "cg Linux order sensitivity, before vs after (×)",
            None,
            ratio(before("cg", "Linux-2MB"), after("cg", "Linux-2MB")),
            Band::around(1.09, 0.1),
        ),
    ];
    let notes = vec![
        "Paper claim: HawkEye helps the TLB-sensitive app 15–60 % in \
         *both* launch orders while Linux only helps whoever faults \
         first and Ingens favors Redis."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn fig9(d: &TargetData) -> Body {
    let s = &d.summary;
    let checks = vec![
        Check::new(
            "graph500 speedup, HawkEye in guest (×)",
            None,
            num(s, "workload", "graph500", "speedup_guest"),
            Band::around(1.34, 0.05),
        ),
        Check::new(
            "graph500 speedup, HawkEye in both layers (×)",
            None,
            num(s, "workload", "graph500", "speedup_both"),
            Band::around(1.35, 0.05),
        ),
        Check::new(
            "graph500 speedup, HawkEye in host only (×)",
            None,
            num(s, "workload", "graph500", "speedup_host"),
            Band::around(1.0, 0.05),
        ),
    ];
    let notes = vec![
        "Host-only is flat (paper saw gains) because our baseline host \
         already backs VM memory with huge pages via proactive \
         compaction (EXPERIMENTS.md divergence 4)."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn fig10(d: &TargetData) -> Body {
    let s = &d.summary;
    let field = |w, f| num(s, "workload", w, f);
    let checks = vec![
        Check::new(
            "omnetpp slowdown, caching stores at 1 GB/s (fraction)",
            Some(0.27),
            field("omnetpp", "slowdown_temporal"),
            Band::around(0.271, 0.02),
        ),
        Check::new(
            "omnetpp slowdown, non-temporal at 1 GB/s (fraction)",
            Some(0.06),
            field("omnetpp", "slowdown_non_temporal"),
            Band::around(0.061, 0.02),
        ),
        Check::new(
            "omnetpp slowdown at production rate limit (fraction)",
            None,
            field("omnetpp", "slowdown_non_temporal_rate_limited"),
            Band::new(0.0, 0.01),
        ),
    ];
    let items: Vec<(String, f64)> = s
        .rows
        .iter()
        .filter_map(|r| {
            let w = r.get("workload").and_then(Json::as_str)?;
            let t = r.get("slowdown_temporal").and_then(Json::as_f64)?;
            Some((w.to_string(), t * 100.0))
        })
        .collect();
    let figures = bars(
        "Worst-case slowdown from the pre-zeroing thread with caching \
         stores at 1 GB/s (%):",
        &items,
    )
    .into_iter()
    .collect();
    (checks, figures, Vec::new())
}

fn fig11(d: &TargetData) -> Body {
    let s = &d.summary;
    let redis = |cfg| num(s, "configuration", cfg, "Redis");
    let checks = vec![
        Check::new(
            "Redis speedup, balloon vs no-balloon (×)",
            Some(2.3),
            redis("balloon, Linux guests"),
            Band::around(6.0, 0.5),
        ),
        Check::new(
            "Redis speedup, HawkEye+KSM vs balloon (×, ≈1 = parity)",
            Some(1.0),
            ratio(
                redis("HawkEye guests + host KSM"),
                redis("balloon, Linux guests"),
            ),
            Band::around(1.0, 0.35),
        ),
        Check::new(
            "pages recovered by KSM dedup (count)",
            None,
            num(
                s,
                "configuration",
                "HawkEye guests + host KSM",
                "pages_recovered",
            ),
            Band::new(1.0, 1e9),
        ),
    ];
    let notes = vec![
        "The paper's claim is parity: HawkEye+KSM matches ballooning \
         without guest cooperation. Absolute factors are larger at our \
         scale because the no-balloon baseline swap-thrashes harder \
         (EXPERIMENTS.md divergence 6)."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn multicore(d: &TargetData) -> Body {
    let s = &d.summary;
    // Rows are keyed (policy, cores); `cores` is numeric in the JSON, so
    // the string-matching `num2` helper can't address them.
    let mc = |policy: &str, cores: f64, field: &str| -> Option<f64> {
        s.rows
            .iter()
            .find(|r| {
                r.get("policy").and_then(Json::as_str) == Some(policy)
                    && r.get("cores").and_then(Json::as_f64) == Some(cores)
            })?
            .get(field)?
            .as_f64()
    };
    let checks = vec![
        // The determinism contract: simulated cores add contention
        // accounting, never work. These ratios are exact by construction
        // (the differential test enforces them bit-for-bit); the band is
        // a float-identity gate, not a tolerance.
        Check::new(
            "faults pinned, HawkEye-G 4-core ÷ serial (×)",
            Some(1.0),
            ratio(
                mc("HawkEye-G", 4.0, "faults"),
                mc("HawkEye-G", 1.0, "faults"),
            ),
            Band::around(1.0, 1e-9),
        ),
        Check::new(
            "exec time pinned, Linux-2MB 8-core ÷ serial (×)",
            Some(1.0),
            ratio(
                mc("Linux-2MB", 8.0, "exec_secs"),
                mc("Linux-2MB", 1.0, "exec_secs"),
            ),
            Band::around(1.0, 1e-9),
        ),
        Check::new(
            "lock acquisitions at 4 cores, HawkEye-G (count)",
            None,
            mc("HawkEye-G", 4.0, "lock_acquisitions"),
            Band::new(1.0, 1e9),
        ),
        Check::new(
            "CAS retries at 4 cores, Linux-2MB (count)",
            None,
            mc("Linux-2MB", 4.0, "cas_retries"),
            Band::new(1.0, 1e9),
        ),
        Check::new(
            "serial baseline reports zero contention (count)",
            Some(0.0),
            mc("HawkEye-G", 1.0, "lock_acquisitions"),
            Band::new(0.0, 0.0),
        ),
    ];
    let notes = vec![
        "The paper runs daemons on dedicated cores of a real multi-core \
         machine; this model replays the recorded per-core op plans on a \
         deterministic virtual clock, so the contention columns are \
         bit-reproducible while aggregate work stays pinned to the \
         serial engine."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn fleet_slo(d: &TargetData) -> Body {
    let s = &d.summary;
    const HG: &str = "HawkEye-G+throttle";
    const L2: &str = "Linux-2MB+noop";
    let f = |label: &str, field: &str| num(s, "cohort", label, field);
    let checks = vec![
        // Fleet SLOs per cohort. The orchestrator is deterministic, so
        // these bands gate against drift in the fleet model itself, not
        // against run-to-run noise.
        Check::new(
            "p99 fault latency, HawkEye-G+throttle (µs)",
            None,
            f(HG, "p99_fault_us"),
            Band::around(465.0, 0.15),
        ),
        Check::new(
            "p99 fault latency, Linux-2MB+noop (µs)",
            None,
            f(L2, "p99_fault_us"),
            Band::around(465.0, 0.15),
        ),
        Check::new(
            "aggregate MMU overhead, HawkEye-G+throttle (frac)",
            None,
            f(HG, "mmu_overhead"),
            Band::new(0.0, 0.01),
        ),
        Check::new(
            "RSS headroom, HawkEye-G+throttle (frac)",
            None,
            f(HG, "rss_headroom"),
            Band::around(0.74, 0.12),
        ),
        Check::new(
            "RSS headroom, Linux-2MB+noop (frac)",
            None,
            f(L2, "rss_headroom"),
            Band::around(0.74, 0.12),
        ),
        // The hook contract: the throttling cohort steers, the noop
        // cohort never does. Exact gates — a noop cohort that steers
        // means the A/B split leaked.
        Check::new(
            "steer decisions, HawkEye-G+throttle (count)",
            None,
            f(HG, "steer_decisions"),
            Band::new(1.0, 1e12),
        ),
        Check::new(
            "steer decisions, Linux-2MB+noop (count)",
            Some(0.0),
            f(L2, "steer_decisions"),
            Band::new(0.0, 0.0),
        ),
        // Overcommit storms must actually exercise the fleet paths:
        // ballooning and migrations both fire in every cohort.
        Check::new(
            "balloon operations, HawkEye-G+throttle (count)",
            None,
            f(HG, "balloons"),
            Band::new(1.0, 1e12),
        ),
        Check::new(
            "tenant migrations out, HawkEye-G+throttle (count)",
            None,
            f(HG, "migrations_out"),
            Band::new(1.0, 1e12),
        ),
    ];
    let notes = vec!["Cohorts run the same diurnal traffic, tenant churn, and \
         overcommit storms on disjoint deterministic RNG streams; the \
         only difference inside a cohort is the kernel policy and the \
         userspace FleetHook steering it at quantum boundaries (DESIGN.md \
         §15). Per-cohort tables land in FLEET.md."
        .into()];
    (checks, Vec::new(), notes)
}

fn oltp_btree(d: &TargetData) -> Body {
    let s = &d.summary;
    let f = |label: &str, field: &str| num(s, "policy", label, field);
    let checks = vec![
        // Not a paper figure: DESIGN.md §17's first generalization
        // family, calibrated against the recorded reference run. The
        // qualitative claim (btree-techniques' TPC-C measurements) is
        // that pointer-chasing B-trees are strongly TLB-bound, so huge
        // pages buy a large fraction of runtime back.
        Check::new(
            "MMU overhead at 4KB (frac)",
            None,
            f("Linux-4KB", "mmu_overhead"),
            Band::around(0.064, 0.15),
        ),
        Check::new(
            "speedup vs 4KB, Linux-2MB (×)",
            None,
            f("Linux-2MB", "speedup_vs_4k"),
            Band::around(1.27, 0.10),
        ),
        Check::new(
            "speedup vs 4KB, HawkEye-G (×)",
            None,
            f("HawkEye-G", "speedup_vs_4k"),
            Band::around(1.54, 0.10),
        ),
        // The machine is pre-fragmented, so HawkEye's edge over static
        // huge pages is proactive compaction + promotion: it must beat
        // fault-time-only Linux-2MB here, not just tie it.
        Check::new(
            "HawkEye-G ÷ Linux-2MB speedup (×)",
            None,
            ratio(
                f("HawkEye-G", "speedup_vs_4k"),
                f("Linux-2MB", "speedup_vs_4k"),
            ),
            Band::new(1.05, 2.0),
        ),
        Check::new(
            "HawkEye-G promotions (count)",
            None,
            f("HawkEye-G", "promotions"),
            Band::new(1.0, 1e6),
        ),
        Check::new(
            "fault reduction, HawkEye-G ÷ Linux-4KB (×)",
            None,
            ratio(f("HawkEye-G", "faults"), f("Linux-4KB", "faults")),
            Band::new(0.1, 0.6),
        ),
    ];
    let notes = vec![
        "Root→leaf chases give consecutive accesses no spatial locality, \
         so four-level walks dominate at 4KB (DESIGN.md §17); the arena \
         is bulk-loaded into a fragmented machine, so only promotion — \
         never fault-time allocation — can recover the walk overhead."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn hpc_stencil(d: &TargetData) -> Body {
    let s = &d.summary;
    let f = |label: &str, field: &str| num(s, "policy", label, field);
    let checks = vec![
        // Calibrated against arXiv 2309.04652 (FLASH Sedov on A64FX):
        // huge pages collapse dTLB misses by orders of magnitude yet buy
        // only single-digit-% runtime, because unit-stride sweeps
        // amortize one walk across a whole page. The two gates below pin
        // exactly that decoupling.
        Check::new(
            "walk-cycle reduction vs 4KB, Linux-2MB (×)",
            Some(100.0),
            f("Linux-2MB", "walk_reduction_vs_4k"),
            Band::new(100.0, 1e9),
        ),
        Check::new(
            "runtime speedup vs 4KB, Linux-2MB (×)",
            Some(1.05),
            f("Linux-2MB", "speedup_vs_4k"),
            Band::new(1.01, 1.099),
        ),
        Check::new(
            "runtime speedup vs 4KB, HawkEye-G (×)",
            Some(1.05),
            f("HawkEye-G", "speedup_vs_4k"),
            Band::new(1.01, 1.099),
        ),
        Check::new(
            "MMU overhead at 4KB (frac)",
            None,
            f("Linux-4KB", "mmu_overhead"),
            Band::around(0.034, 0.15),
        ),
        // On a clean machine fault-time huge pages and promotion
        // converge: HawkEye must match static huge pages exactly.
        Check::new(
            "HawkEye-G exec ÷ Linux-2MB exec (×)",
            Some(1.0),
            ratio(f("HawkEye-G", "exec_secs"), f("Linux-2MB", "exec_secs")),
            Band::around(1.0, 0.02),
        ),
        Check::new(
            "fault reduction, Linux-2MB ÷ Linux-4KB (×)",
            None,
            ratio(f("Linux-2MB", "faults"), f("Linux-4KB", "faults")),
            Band::new(0.0, 0.1),
        ),
    ];
    let notes = vec![
        "The published study's headline is the big-ratio/small-speedup \
         decoupling, not absolute times: dTLB misses collapse by orders \
         of magnitude while runtime improves single-digit-%. Bands gate \
         the same two shapes at our scale (paper column: 2309.04652's \
         qualitative deltas, not same-scale numbers)."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

fn adversarial(d: &TargetData) -> Body {
    let s = &d.summary;
    // Rows are keyed (attack, intensity, policy); intensity is numeric,
    // so the string-matching helpers can't address them.
    let cell = |attack: &str, intensity: f64, policy: &str, field: &str| -> Option<f64> {
        s.rows
            .iter()
            .find(|r| {
                r.get("attack").and_then(Json::as_str) == Some(attack)
                    && r.get("intensity").and_then(Json::as_f64) == Some(intensity)
                    && r.get("policy").and_then(Json::as_str) == Some(policy)
            })?
            .get(field)?
            .as_f64()
    };
    // The worst (maximum) victim ratio a policy sees under one attack
    // across the whole sweep; `None` when no rows matched at all.
    let worst = |attack: &str, policy: &str| -> Option<f64> {
        s.rows
            .iter()
            .filter(|r| {
                r.get("attack").and_then(Json::as_str) == Some(attack)
                    && r.get("policy").and_then(Json::as_str) == Some(policy)
            })
            .filter_map(|r| r.get("vs_linux2m")?.as_f64())
            .reduce(f64::max)
    };
    let checks = vec![
        // The atlas's headline (acceptance gate): there is at least one
        // swept intensity where HawkEye-G loses to Linux-2MB — the bloat
        // attacker aims recovery at the victim's zero tails and wins.
        Check::new(
            "knee exists: worst HawkEye-G ratio under bloat (×)",
            None,
            worst("bloat", "HawkEye-G"),
            Band::new(1.001, 10.0),
        ),
        Check::new(
            "HawkEye-G ratio at bloat i=0.75 (×)",
            None,
            cell("bloat", 0.75, "HawkEye-G", "vs_linux2m"),
            Band::around(1.066, 0.10),
        ),
        Check::new(
            "recovery churn at the knee: HawkEye-G promotions (count)",
            None,
            cell("bloat", 0.75, "HawkEye-G", "promotions"),
            Band::new(1.0, 1e6),
        ),
        // Robustness half of the atlas: proactive compaction defends the
        // frag attack — HawkEye-G never loses to Linux-2MB there.
        Check::new(
            "frag robustness: worst HawkEye-G ratio under frag (×)",
            None,
            worst("frag", "HawkEye-G"),
            Band::new(0.5, 1.0),
        ),
        // The overshoot wrinkle: at full intensity the bloat attacker
        // OOM-kills itself under every huge-page policy, so the envelope
        // is non-monotone (DESIGN.md §17).
        Check::new(
            "bloat i=1.00 attacker OOM under Linux-2MB (flag)",
            None,
            cell("bloat", 1.0, "Linux-2MB", "attacker_oom"),
            Band::exact(1.0),
        ),
        Check::new(
            "victim survives every cell under HawkEye-G (ooms)",
            Some(0.0),
            s.rows
                .iter()
                .filter(|r| r.get("policy").and_then(Json::as_str) == Some("HawkEye-G"))
                .filter_map(|r| r.get("victim_oom")?.as_f64())
                .reduce(|a, b| a + b),
            Band::exact(0.0),
        ),
    ];
    let notes = vec![
        "Full intensity × policy ratio tables, the per-policy knee table, \
         and knee-cell latency percentiles land in the generated \
         ENVELOPES.md (DESIGN.md §17). The bloat knee is mechanistic, \
         not tuned: bloat recovery reclaims zero base pages from the \
         lowest-overhead-score process first, and a dense fully-written \
         attacker leaves the victim's in-huge-page free tails as the \
         only reclaimable memory on the machine."
            .into(),
    ];
    (checks, Vec::new(), notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_analyze::summary::parse_summary;

    fn data(name: &'static str, json: &str) -> TargetData {
        TargetData {
            name,
            paper_ref: "Test",
            summary: parse_summary(json).expect("summary"),
            trace: None,
        }
    }

    #[test]
    fn every_suite_target_has_expectations() {
        for t in hawkeye_bench::suite::TARGETS {
            let d = data(t.name, r#"{"target":"t","title":"x","rows":[]}"#);
            let s = section(&d);
            assert!(!s.checks.is_empty(), "{} has no checks registered", t.name);
        }
    }

    #[test]
    fn missing_rows_surface_as_failing_checks() {
        let d = data(
            "table1_fault_latency",
            r#"{"target":"t","title":"x","rows":[]}"#,
        );
        let s = section(&d);
        assert!(s.checks.iter().all(|c| c.measured.is_none()));
        assert!(
            s.checks.iter().all(|c| !c.passes(0.0)),
            "missing metrics must fail"
        );
    }

    #[test]
    fn table2_counts_misclassifications() {
        let json = r#"{"target":"t","title":"x","rows":[
            {"suite":"SPEC","total":30,"sensitive":4,"paper":4},
            {"suite":"PARSEC","total":10,"sensitive":1,"paper":2},
            {"suite":"TOTAL","total":79,"sensitive":15,"paper":15}
        ]}"#;
        let s = section(&data("table2_tlb_sensitivity", json));
        let mis = s
            .checks
            .iter()
            .find(|c| c.metric.contains("misclass"))
            .expect("check");
        assert_eq!(mis.measured, Some(1.0));
        assert!(!mis.passes(0.0));
    }

    #[test]
    fn fig4_compares_order_strings() {
        let json = r#"{"target":"t","title":"x","rows":[
            {"promotion_order":"A1,B1","paper_order":"A1,B1","matches_paper":true}
        ]}"#;
        let s = section(&data("fig4_access_map", json));
        assert_eq!(s.checks[0].measured, Some(1.0));
        assert!(s.checks[0].passes(0.0));
    }
}
