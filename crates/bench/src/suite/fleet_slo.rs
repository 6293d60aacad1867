//! Fleet SLOs: thousands of hosts behind the `hawkeye-fleet`
//! orchestrator, A/B-testing kernel policies under userspace hooks.
//!
//! Two cohorts run the same diurnal traffic curve, tenant churn, and
//! overcommit storms (DESIGN.md §15): HawkEye-G steered by the
//! `throttle-under-pressure` hook, and Linux-2MB under the hands-off
//! hook as control. The table reports fleet SLOs per cohort — p99 fault
//! latency, aggregate MMU overhead, RSS headroom — plus the tenancy and
//! steering counters that prove the storms and the hook actually fired.
//! Sampled host journals ride into `fleet_slo.trace.json` through the
//! target's [`Run`].

use crate::{pct, PolicyKind, Report, Row, Run};
use hawkeye_fleet::{CohortSpec, FleetConfig, NoopHook, ThrottleUnderPressure};
use hawkeye_kernel::{HugePagePolicy, KernelConfig};
use hawkeye_metrics::json::Json;
use hawkeye_trace::Journal;
use std::time::Instant;

fn hawkeye_policy() -> Box<dyn HugePagePolicy> {
    PolicyKind::HawkEyeG.build()
}

fn hawkeye_config(mib: u64) -> KernelConfig {
    PolicyKind::HawkEyeG.config(mib)
}

fn linux2m_policy() -> Box<dyn HugePagePolicy> {
    PolicyKind::Linux2m.build()
}

fn linux2m_config(mib: u64) -> KernelConfig {
    PolicyKind::Linux2m.config(mib)
}

fn throttle_hook() -> Box<dyn hawkeye_fleet::FleetHook> {
    // Engage just below the orchestrator's cascade threshold so the hook
    // sees pressure building before storms resolve it.
    Box::new(ThrottleUnderPressure::new(0.60, 0.85))
}

fn noop_hook() -> Box<dyn hawkeye_fleet::FleetHook> {
    Box::new(NoopHook)
}

/// The A/B cohorts: HawkEye-G steered by the pressure hook vs Linux-2MB
/// under the hands-off control hook.
pub fn cohorts() -> Vec<CohortSpec> {
    vec![
        CohortSpec {
            name: "HawkEye-G+throttle",
            policy: hawkeye_policy,
            config: hawkeye_config,
            hook: throttle_hook,
        },
        CohortSpec {
            name: "Linux-2MB+noop",
            policy: linux2m_policy,
            config: linux2m_config,
            hook: noop_hook,
        },
    ]
}

/// Runs the fleet at an explicit shape — the determinism tests and the
/// CI smoke gate use small fleets; [`report`] uses [`FleetConfig::slo`].
/// The sampled host journals always go into `run`. With `run.obs` on,
/// the fleet's per-cohort accumulators are finalized into time series,
/// evaluated against the default burn-rate rules and stored as the
/// `fleet_slo.obs.json` document, and the SLO transitions ride into the
/// trace doc as a synthetic `obs/slo` journal of typed
/// `slo_breach`/`slo_recover` events. With it off, nothing here runs and
/// every artifact is bit-identical to the pre-telemetry pipeline.
pub fn report_with(cfg: &FleetConfig, run: &mut Run) -> Report {
    let t0 = Instant::now();
    let mut result = hawkeye_fleet::run(cfg, &cohorts(), run.threads, run.obs);
    run.phase("engine", t0.elapsed().as_secs_f64());
    if let Some(obs) = &result.obs {
        let series = result
            .cohorts
            .iter()
            .zip(obs.iter())
            .map(|(slo, acc)| hawkeye_obs::finalize(&slo.cohort, acc))
            .collect();
        let doc = hawkeye_obs::evaluate("fleet_slo", series, &hawkeye_obs::default_rules());
        let records = hawkeye_obs::slo_trace_records(&doc, cfg.epoch_ms);
        if !records.is_empty() {
            result.journals.push(("obs/slo".to_string(), Journal { records, dropped: 0 }));
        }
        run.obs_doc = Some(doc.to_json().to_string());
    }
    run.journals.append(&mut result.journals);

    let mut report = Report::new(
        "fleet_slo",
        format!(
            "Fleet SLOs: {} hosts/cohort, {} epochs, userspace hooks steering kernel policy",
            cfg.hosts, cfg.epochs
        ),
        vec![
            "Cohort", "hook", "faults", "p50 us", "p99 us", "MMU ovh", "headroom",
            "migrations", "balloons", "steers",
        ],
    );
    for slo in &result.cohorts {
        let t = &slo.tenancy;
        report.add(
            Row::new(vec![
                slo.cohort.clone(),
                slo.hook.clone(),
                slo.faults.to_string(),
                format!("{:.2}", slo.p50_fault_us),
                format!("{:.2}", slo.p99_fault_us),
                pct(slo.mmu_overhead),
                pct(slo.rss_headroom),
                t.migrations_out.to_string(),
                (t.balloons + t.cascade_balloons).to_string(),
                slo.steer_decisions.to_string(),
            ])
            .with_json(Json::obj(vec![
                ("cohort", Json::str(slo.cohort.clone())),
                ("hook", Json::str(slo.hook.clone())),
                ("hosts", Json::int(slo.hosts as u64)),
                ("faults", Json::int(slo.faults)),
                ("p50_fault_us", Json::num(slo.p50_fault_us)),
                ("p99_fault_us", Json::num(slo.p99_fault_us)),
                ("mmu_overhead", Json::num(slo.mmu_overhead)),
                ("rss_headroom", Json::num(slo.rss_headroom)),
                ("promotions", Json::int(slo.promotions)),
                ("demotions", Json::int(slo.demotions)),
                ("deduped_pages", Json::int(slo.deduped_pages)),
                ("ooms", Json::int(slo.ooms)),
                ("spawned", Json::int(t.spawned)),
                ("finished", Json::int(t.finished)),
                ("balloons", Json::int(t.balloons)),
                ("cascade_balloons", Json::int(t.cascade_balloons)),
                ("migrations_out", Json::int(t.migrations_out)),
                ("migrations_in", Json::int(t.migrations_in)),
                ("steer_decisions", Json::int(slo.steer_decisions)),
            ])),
        );
    }
    report.footer(
        "(fleet serving model, DESIGN.md §15: diurnal churn + overcommit storms;\n\
         the throttle hook pauses khugepaged and presses bloat recovery under\n\
         pressure, the noop cohort is the unsteered control)",
    );
    report
}

/// The standard `fleet_slo` target: 1024 hosts per cohort.
pub fn report(run: &mut Run) -> Report {
    report_with(&FleetConfig::slo(), run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_report_keeps_doc_and_matches_unobserved_rows() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let mut plain = Run::new(2, false, false);
        let plain_report = report_with(&cfg, &mut plain);
        assert!(plain.obs_doc.is_none());

        let mut observed = Run::new(2, false, true);
        let observed_report = report_with(&cfg, &mut observed);

        // Zero drift: the report table is bit-identical with obs on.
        assert_eq!(plain_report.json().to_string(), observed_report.json().to_string());
        // Host journals are untouched; obs may append one synthetic
        // `obs/slo` journal at the end.
        assert_eq!(&observed.journals[..plain.journals.len()], &plain.journals[..]);
        for (name, _) in &observed.journals[plain.journals.len()..] {
            assert_eq!(name, "obs/slo");
        }

        // The doc has both cohorts with one point per epoch.
        let doc = observed.obs_doc.expect("observed run keeps its doc");
        assert!(doc.starts_with(r#"{"target":"fleet_slo","schema_version":"#));
        assert!(doc.contains(r#""cohort":"HawkEye-G+throttle""#));
        assert!(doc.contains(r#""cohort":"Linux-2MB+noop""#));
        assert_eq!(doc.matches(r#"{"epoch":"#).count(), 2 * cfg.epochs as usize);

        // Determinism: 8 workers produce the same bytes.
        let mut rerun = Run::new(8, false, true);
        report_with(&cfg, &mut rerun);
        assert_eq!(rerun.obs_doc, Some(doc));
    }

    #[test]
    fn small_fleet_report_has_both_cohorts_and_steering() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let mut run = Run::new(2, false, false);
        let r = report_with(&cfg, &mut run);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].cells[0], "HawkEye-G+throttle");
        assert_eq!(r.rows()[1].cells[1], "noop");
        let json = r.json().to_string();
        assert!(json.contains("\"p99_fault_us\""));
        assert!(json.contains("\"steer_decisions\""));
        assert_eq!(run.journals.len(), 2 * cfg.journal_hosts);
    }
}
