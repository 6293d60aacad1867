//! The evaluated telemetry document: everything `ALERTS.md` and the
//! trace events are derived from, and exactly what is serialized to
//! `<target>.obs.json`.
//!
//! The document is a *pure value*: evaluation (`slo::evaluate`) computes
//! it from finalized series + rules, [`ObsDoc::to_json`] and
//! [`ObsDoc::parse`] are its writer and reader, and the renderers are
//! deterministic functions of it. Bump [`OBS_SCHEMA_VERSION`] whenever a
//! field is added, removed, or changes meaning.

use hawkeye_metrics::json::{self, Json};

use crate::anomaly::Anomaly;
use crate::series::{CohortSeries, EpochPoint};

/// Schema version stamped into every `<target>.obs.json`.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// Whether an [`Alert`] marks the start or the end of a breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Both burn windows crossed the rule's threshold × burn factor.
    Breach,
    /// A previously-breaching rule moved back inside its band.
    Recover,
}

impl AlertKind {
    /// Stable lower-case tag for serialization.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Breach => "breach",
            AlertKind::Recover => "recover",
        }
    }

    /// Inverse of [`AlertKind::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "breach" => Some(AlertKind::Breach),
            "recover" => Some(AlertKind::Recover),
            _ => None,
        }
    }
}

/// One edge-triggered SLO transition on a cohort's series.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Index of the rule in [`ObsDoc::rules`].
    pub rule: u64,
    /// Rule name (denormalized for readable artifacts).
    pub name: String,
    /// Epoch at which the transition was detected.
    pub epoch: u32,
    /// Breach or recover.
    pub kind: AlertKind,
    /// Fast-window mean at the transition epoch.
    pub fast: f64,
    /// Slow-window mean at the transition epoch.
    pub slow: f64,
}

/// A burn-rate rule as recorded in the document (the serialization form
/// of `slo::BurnRule`, so ALERTS.md can be re-rendered from the JSON
/// alone).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDoc {
    /// Rule name.
    pub name: String,
    /// Series key name (`slo::SeriesKey::name`).
    pub series: String,
    /// SLO threshold on the series value.
    pub threshold: f64,
    /// Fast window length, epochs.
    pub fast_window: u64,
    /// Slow window length, epochs (clamped to run length at evaluation).
    pub slow_window: u64,
    /// Burn factor applied to the threshold for the fast window.
    pub fast_burn: f64,
    /// Burn factor applied to the threshold for the slow window.
    pub slow_burn: f64,
    /// `"above"` or `"below"` — which side of the threshold burns.
    pub direction: String,
}

/// One cohort's evaluated telemetry: series plus alerts plus anomalies.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortObs {
    /// The finalized per-epoch series.
    pub series: CohortSeries,
    /// Edge-triggered SLO transitions, sorted by (epoch, rule).
    pub alerts: Vec<Alert>,
    /// EWMA z-score annotations, in series order then epoch order.
    pub anomalies: Vec<Anomaly>,
}

/// The full evaluated telemetry document for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsDoc {
    /// Suite target the document describes (e.g. `fleet_slo`).
    pub target: String,
    /// Schema version ([`OBS_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// The rule set the alerts were evaluated against.
    pub rules: Vec<RuleDoc>,
    /// One entry per cohort, in fleet cohort order.
    pub cohorts: Vec<CohortObs>,
}

impl ObsDoc {
    /// The `<target>.obs.json` document: target, schema_version, rules,
    /// cohorts (each cohort: cohort, points, alerts, anomalies).
    pub fn to_json(&self) -> Json {
        let rules = self
            .rules
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::str(r.name.clone())),
                    ("series", Json::str(r.series.clone())),
                    ("threshold", Json::num(r.threshold)),
                    ("fast_window", Json::int(r.fast_window)),
                    ("slow_window", Json::int(r.slow_window)),
                    ("fast_burn", Json::num(r.fast_burn)),
                    ("slow_burn", Json::num(r.slow_burn)),
                    ("direction", Json::str(r.direction.clone())),
                ])
            })
            .collect();
        let cohorts = self
            .cohorts
            .iter()
            .map(|c| {
                let points = c
                    .series
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("epoch", Json::int(p.epoch as u64)),
                            ("faults", Json::int(p.faults)),
                            ("p50_us", Json::num(p.p50_us)),
                            ("p90_us", Json::num(p.p90_us)),
                            ("p99_us", Json::num(p.p99_us)),
                            ("p999_us", Json::num(p.p999_us)),
                            ("mmu_overhead", Json::num(p.mmu_overhead)),
                            ("rss_headroom", Json::num(p.rss_headroom)),
                            ("fmfi", Json::num(p.fmfi)),
                        ])
                    })
                    .collect();
                let alerts = c
                    .alerts
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("rule", Json::int(a.rule)),
                            ("name", Json::str(a.name.clone())),
                            ("epoch", Json::int(a.epoch as u64)),
                            ("kind", Json::str(a.kind.name())),
                            ("fast", Json::num(a.fast)),
                            ("slow", Json::num(a.slow)),
                        ])
                    })
                    .collect();
                let anomalies = c
                    .anomalies
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("series", Json::str(a.series.clone())),
                            ("epoch", Json::int(a.epoch as u64)),
                            ("value", Json::num(a.value)),
                            ("z", Json::num(a.z)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("cohort", Json::str(c.series.cohort.clone())),
                    ("points", Json::Arr(points)),
                    ("alerts", Json::Arr(alerts)),
                    ("anomalies", Json::Arr(anomalies)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("target", Json::str(self.target.clone())),
            ("schema_version", Json::int(self.schema_version)),
            ("rules", Json::Arr(rules)),
            ("cohorts", Json::Arr(cohorts)),
        ])
    }

    /// Parses a `<target>.obs.json` document — the exact inverse of
    /// [`ObsDoc::to_json`], so `ALERTS.md` can be re-rendered from the
    /// artifact alone. A missing field is an error, never a zero: writer
    /// and reader evolve together.
    pub fn parse(text: &str) -> Result<ObsDoc, String> {
        let v = json::parse(text)?;
        let ctx = "obs doc";
        Ok(ObsDoc {
            target: str_field(&v, "target", ctx)?,
            schema_version: u64_field(&v, "schema_version", ctx)?,
            rules: arr_field(&v, "rules", ctx, |r, i| {
                let ctx = &format!("rule {i}");
                Ok(RuleDoc {
                    name: str_field(r, "name", ctx)?,
                    series: str_field(r, "series", ctx)?,
                    threshold: f64_field(r, "threshold", ctx)?,
                    fast_window: u64_field(r, "fast_window", ctx)?,
                    slow_window: u64_field(r, "slow_window", ctx)?,
                    fast_burn: f64_field(r, "fast_burn", ctx)?,
                    slow_burn: f64_field(r, "slow_burn", ctx)?,
                    direction: str_field(r, "direction", ctx)?,
                })
            })?,
            cohorts: arr_field(&v, "cohorts", ctx, parse_cohort)?,
        })
    }
}

fn parse_cohort(v: &Json, i: usize) -> Result<CohortObs, String> {
    let ctx = &format!("cohort {i}");
    let points = arr_field(v, "points", ctx, |p, j| {
        let ctx = &format!("{ctx} point {j}");
        Ok(EpochPoint {
            epoch: u64_field(p, "epoch", ctx)? as u32,
            faults: u64_field(p, "faults", ctx)?,
            p50_us: f64_field(p, "p50_us", ctx)?,
            p90_us: f64_field(p, "p90_us", ctx)?,
            p99_us: f64_field(p, "p99_us", ctx)?,
            p999_us: f64_field(p, "p999_us", ctx)?,
            mmu_overhead: f64_field(p, "mmu_overhead", ctx)?,
            rss_headroom: f64_field(p, "rss_headroom", ctx)?,
            fmfi: f64_field(p, "fmfi", ctx)?,
        })
    })?;
    let alerts = arr_field(v, "alerts", ctx, |a, j| {
        let ctx = &format!("{ctx} alert {j}");
        let kind = str_field(a, "kind", ctx)?;
        Ok(Alert {
            rule: u64_field(a, "rule", ctx)?,
            name: str_field(a, "name", ctx)?,
            epoch: u64_field(a, "epoch", ctx)? as u32,
            kind: AlertKind::from_name(&kind)
                .ok_or_else(|| format!("{ctx}: unknown alert kind \"{kind}\""))?,
            fast: f64_field(a, "fast", ctx)?,
            slow: f64_field(a, "slow", ctx)?,
        })
    })?;
    let anomalies = arr_field(v, "anomalies", ctx, |a, j| {
        let ctx = &format!("{ctx} anomaly {j}");
        Ok(Anomaly {
            series: str_field(a, "series", ctx)?,
            epoch: u64_field(a, "epoch", ctx)? as u32,
            value: f64_field(a, "value", ctx)?,
            z: f64_field(a, "z", ctx)?,
        })
    })?;
    Ok(CohortObs {
        series: CohortSeries {
            cohort: str_field(v, "cohort", ctx)?,
            points,
        },
        alerts,
        anomalies,
    })
}

fn req<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

/// A required string field; `ctx` names the enclosing object in errors.
pub(crate) fn str_field(v: &Json, key: &str, ctx: &str) -> Result<String, String> {
    req(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a string"))
}

/// A required `u64` field.
pub(crate) fn u64_field(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    req(v, key, ctx)?.as_u64().ok_or_else(|| format!("{ctx}: \"{key}\" is not a u64"))
}

/// A required number field.
pub(crate) fn f64_field(v: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    req(v, key, ctx)?.as_f64().ok_or_else(|| format!("{ctx}: \"{key}\" is not a number"))
}

/// A required array field, each item read by `item(value, index)`.
pub(crate) fn arr_field<T>(
    v: &Json,
    key: &str,
    ctx: &str,
    item: impl Fn(&Json, usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    req(v, key, ctx)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not an array"))?
        .iter()
        .enumerate()
        .map(|(i, x)| item(x, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBS_TEXT: &str = r#"{"target":"fleet_slo","schema_version":1,
        "rules":[{"name":"fault-p99-latency","series":"p99_fault_us","threshold":500,
                  "fast_window":2,"slow_window":6,"fast_burn":1,"slow_burn":0.8,
                  "direction":"above"}],
        "cohorts":[{"cohort":"A",
            "points":[{"epoch":0,"faults":12,"p50_us":1.5,"p90_us":2,"p99_us":9.25,
                       "p999_us":11,"mmu_overhead":0.01,"rss_headroom":0.4,"fmfi":0.2}],
            "alerts":[{"rule":0,"name":"fault-p99-latency","epoch":0,"kind":"breach",
                       "fast":600,"slow":410}],
            "anomalies":[{"series":"p99_fault_us","epoch":0,"value":9.25,"z":3.5}]}]}"#;

    #[test]
    fn obs_doc_round_trips_through_writer_and_parser() {
        let d = ObsDoc::parse(OBS_TEXT).expect("parse");
        assert_eq!(d.target, "fleet_slo");
        assert_eq!(d.rules[0].slow_burn, 0.8);
        let c = &d.cohorts[0];
        assert_eq!(c.series.cohort, "A");
        assert_eq!(c.series.points[0].p99_us, 9.25);
        assert_eq!(c.alerts[0].kind, AlertKind::Breach);
        assert_eq!(c.anomalies[0].z, 3.5);
        let text = d.to_json().to_string();
        let compact: String = OBS_TEXT.split_whitespace().collect();
        assert_eq!(text, compact, "the writer emits the reader's key order");
        assert_eq!(ObsDoc::parse(&text).expect("parse back"), d, "exact inverses");
    }

    #[test]
    fn rejects_missing_fields_and_unknown_kinds() {
        let err = ObsDoc::parse(
            r#"{"target":"t","schema_version":1,"rules":[],"cohorts":[
            {"cohort":"A","points":[],"alerts":[{"rule":0,"name":"r","epoch":0,
             "kind":"explode","fast":1,"slow":1}],"anomalies":[]}]}"#,
        )
        .expect_err("unknown kind");
        assert!(err.contains("explode"), "{err}");
        let err = ObsDoc::parse(r#"{"target":"t","rules":[],"cohorts":[]}"#)
            .expect_err("no version");
        assert!(err.contains("schema_version"), "{err}");
    }
}
