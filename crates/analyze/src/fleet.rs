//! FLEET.md: per-cohort SLO tables rendered from the `fleet_slo`
//! bench summary.
//!
//! The fleet orchestrator's summary rows carry every cohort's SLOs and
//! tenancy counters (see `hawkeye-fleet`); this module turns them into
//! the deterministic markdown document `hawkeye-report` writes next to
//! REPORT.md. Same bytes for the same summary, always — FLEET.md sits
//! inside the artifact determinism gate.

use crate::render::table;
use crate::summary::SummaryDoc;
use hawkeye_metrics::json::Json;

fn s(row: &Json, key: &str) -> String {
    row.get(key).and_then(Json::as_str).unwrap_or("?").to_string()
}

fn int(row: &Json, key: &str) -> String {
    match row.get(key).and_then(Json::as_u64) {
        Some(v) => v.to_string(),
        None => "?".to_string(),
    }
}

fn float(row: &Json, key: &str, decimals: usize) -> String {
    match row.get(key).and_then(Json::as_f64) {
        Some(v) => format!("{v:.decimals$}"),
        None => "?".to_string(),
    }
}

fn pct(row: &Json, key: &str) -> String {
    match row.get(key).and_then(Json::as_f64) {
        Some(v) => format!("{:.2}%", 100.0 * v),
        None => "?".to_string(),
    }
}

/// Whether the cohort row has no completed epochs: its latency/overhead
/// fields are vacuous zeros, not measurements.
fn idle_cohort(row: &Json) -> bool {
    row.get("faults").and_then(Json::as_u64) == Some(0)
}

/// Like `float`, but `n/a` when the cohort never ran an epoch.
fn measured_float(row: &Json, key: &str, decimals: usize) -> String {
    if idle_cohort(row) { "n/a".to_string() } else { float(row, key, decimals) }
}

/// Like `pct`, but `n/a` when the cohort never ran an epoch.
fn measured_pct(row: &Json, key: &str) -> String {
    if idle_cohort(row) { "n/a".to_string() } else { pct(row, key) }
}

/// Renders FLEET.md from the `fleet_slo` summary: the SLO table, the
/// tenancy/steering table, and the huge-page activity table, one row per
/// cohort. Returns `None` for any other target (callers skip the file).
pub fn fleet_md(doc: &SummaryDoc) -> Option<String> {
    if doc.target != "fleet_slo" || doc.rows.is_empty() {
        return None;
    }
    let mut out = String::new();
    out.push_str("# Fleet SLOs\n\n");
    out.push_str(&format!("{}\n\n", doc.title));
    out.push_str(
        "Per-cohort service-level objectives from the `hawkeye-fleet` run:\n\
         each cohort pairs one kernel policy with one userspace hook and runs\n\
         the same diurnal traffic, tenant churn, and overcommit storms.\n\n",
    );

    out.push_str("## Service-level objectives\n\n");
    let slo_rows: Vec<Vec<String>> = doc
        .rows
        .iter()
        .map(|r| {
            vec![
                s(r, "cohort"),
                s(r, "hook"),
                int(r, "hosts"),
                int(r, "faults"),
                measured_float(r, "p50_fault_us", 2),
                measured_float(r, "p99_fault_us", 2),
                measured_pct(r, "mmu_overhead"),
                measured_pct(r, "rss_headroom"),
            ]
        })
        .collect();
    table(
        &mut out,
        &[
            "Cohort", "Hook", "Hosts", "Faults", "p50 fault (µs)", "p99 fault (µs)",
            "MMU overhead", "RSS headroom",
        ],
        &slo_rows,
    );

    out.push_str("\n## Tenancy and steering\n\n");
    let tenancy_rows: Vec<Vec<String>> = doc
        .rows
        .iter()
        .map(|r| {
            vec![
                s(r, "cohort"),
                int(r, "spawned"),
                int(r, "finished"),
                format!("{}/{}", int(r, "migrations_out"), int(r, "migrations_in")),
                int(r, "balloons"),
                int(r, "cascade_balloons"),
                int(r, "steer_decisions"),
                int(r, "ooms"),
            ]
        })
        .collect();
    table(
        &mut out,
        &[
            "Cohort", "Spawned", "Finished", "Migrations out/in", "Balloons",
            "Cascade balloons", "Steer decisions", "OOM kills",
        ],
        &tenancy_rows,
    );

    out.push_str("\n## Huge-page activity\n\n");
    let hp_rows: Vec<Vec<String>> = doc
        .rows
        .iter()
        .map(|r| {
            vec![
                s(r, "cohort"),
                int(r, "promotions"),
                int(r, "demotions"),
                int(r, "deduped_pages"),
            ]
        })
        .collect();
    table(
        &mut out,
        &["Cohort", "Promotions", "Demotions", "Deduped zero pages"],
        &hp_rows,
    );
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::parse_summary;

    fn fleet_doc() -> SummaryDoc {
        parse_summary(
            r#"{"target":"fleet_slo","title":"Fleet SLOs: 8 hosts/cohort","rows":[
                {"cohort":"HawkEye-G+throttle","hook":"throttle-under-pressure",
                 "hosts":8,"faults":1000,"p50_fault_us":1.5,"p99_fault_us":9.25,
                 "mmu_overhead":0.012,"rss_headroom":0.45,
                 "promotions":10,"demotions":2,"deduped_pages":300,"ooms":0,
                 "spawned":40,"finished":35,"balloons":3,"cascade_balloons":1,
                 "migrations_out":2,"migrations_in":2,"steer_decisions":12},
                {"cohort":"Linux-2MB+noop","hook":"noop",
                 "hosts":8,"faults":900,"p50_fault_us":1.25,"p99_fault_us":11.5,
                 "mmu_overhead":0.02,"rss_headroom":0.4,
                 "promotions":8,"demotions":0,"deduped_pages":0,"ooms":1,
                 "spawned":41,"finished":36,"balloons":2,"cascade_balloons":0,
                 "migrations_out":1,"migrations_in":1,"steer_decisions":0}
            ]}"#,
        )
        .expect("parse")
    }

    #[test]
    fn renders_all_three_tables_per_cohort() {
        let md = fleet_md(&fleet_doc()).expect("fleet target renders");
        for needle in [
            "# Fleet SLOs",
            "## Service-level objectives",
            "## Tenancy and steering",
            "## Huge-page activity",
            "| HawkEye-G+throttle | throttle-under-pressure | 8 | 1000 | 1.50 | 9.25 | 1.20% | 45.00% |",
            "| Linux-2MB+noop | 41 | 36 | 1/1 | 2 | 0 | 0 | 1 |",
            "| HawkEye-G+throttle | 10 | 2 | 300 |",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        assert_eq!(fleet_md(&fleet_doc()).expect("again"), md, "deterministic");
    }

    #[test]
    fn non_fleet_targets_render_nothing() {
        let other =
            parse_summary(r#"{"target":"table1_fault_latency","title":"t","rows":[{"a":1}]}"#)
                .expect("parse");
        assert!(fleet_md(&other).is_none());
        let empty = parse_summary(r#"{"target":"fleet_slo","title":"t","rows":[]}"#)
            .expect("parse");
        assert!(fleet_md(&empty).is_none());
    }

    #[test]
    fn empty_cohorts_render_na_not_vacuous_zeros() {
        // A cohort with zero completed epochs reports faults=0 and all
        // derived SLOs as 0.0 — those are absences, not measurements.
        let doc = parse_summary(
            r#"{"target":"fleet_slo","title":"t","rows":[
                {"cohort":"empty","hook":"noop","hosts":8,"faults":0,
                 "p50_fault_us":0.0,"p99_fault_us":0.0,
                 "mmu_overhead":0.0,"rss_headroom":0.0,
                 "promotions":0,"demotions":0,"deduped_pages":0,"ooms":0,
                 "spawned":0,"finished":0,"balloons":0,"cascade_balloons":0,
                 "migrations_out":0,"migrations_in":0,"steer_decisions":0}
            ]}"#,
        )
        .expect("parse");
        let md = fleet_md(&doc).expect("renders");
        assert!(
            md.contains("| empty | noop | 8 | 0 | n/a | n/a | n/a | n/a |"),
            "idle cohort must render n/a, got:\n{md}"
        );
        // A cohort that did fault keeps its real numbers.
        let md = fleet_md(&fleet_doc()).expect("renders");
        assert!(md.contains("| 1000 | 1.50 | 9.25 | 1.20% | 45.00% |"), "{md}");
    }

    #[test]
    fn missing_fields_render_placeholders_not_panics() {
        let sparse = parse_summary(
            r#"{"target":"fleet_slo","title":"t","rows":[{"cohort":"x"}]}"#,
        )
        .expect("parse");
        let md = fleet_md(&sparse).expect("renders");
        assert!(md.contains("| x | ? | ? | ? | ? | ? | ? | ? |"), "{md}");
    }
}
