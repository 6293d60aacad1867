//! Parser for the bench summary JSONs
//! (`target/bench-results/<target>.json`).
//!
//! Every bench target writes `{target, title, rows: [...]}` via
//! `Report::json`, and the scenario engine appends a `cycles` section —
//! the drained cycle-attribution registries — on the way to disk. This
//! module loads that document back: the `rows` stay raw [`Json`]s
//! (their schema is per-target; callers extract fields with
//! [`Json::get`]), while the `cycles` section is parsed into typed
//! ledgers matching [`crate::SUBSYSTEMS`] order so Table 1/4-style MMU
//! overhead tables can be rebuilt offline.

use crate::SUBSYSTEMS;
use hawkeye_metrics::json::{self, Json};

/// One parsed bench summary document.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryDoc {
    /// Bench-target name (the JSON file stem).
    pub target: String,
    /// Human title printed above the bench table.
    pub title: String,
    /// Per-row headline numbers, schema per target (raw JSON values).
    pub rows: Vec<Json>,
    /// The cycle-attribution section: one entry per scenario, present
    /// only when the engine captured registries (always-on since PR 4).
    pub cycles: Vec<ScenarioCycles>,
}

/// The drained cycle-attribution registries of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCycles {
    /// Scenario name (a bench table row label).
    pub scenario: String,
    /// Per-machine ledgers, in machine-id order.
    pub machines: Vec<MachineCycles>,
}

/// One machine's cumulative cycle ledgers at scenario end.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCycles {
    /// Per-scope machine id.
    pub machine: u64,
    /// `CPU_CLK_UNHALTED` total.
    pub unhalted: u64,
    /// `unhalted − Σ cpu`; `None` for host-style machines that never
    /// record unhalted cycles (serialized as JSON `null`).
    pub residue: Option<f64>,
    /// CPU-ledger cycles in [`SUBSYSTEMS`] order.
    pub cpu: [u64; 8],
    /// Daemon-ledger cycles in [`SUBSYSTEMS`] order.
    pub daemon: [u64; 8],
}

impl SummaryDoc {
    /// The cycles of `scenario`, if the section has an entry for it.
    pub fn scenario_cycles(&self, scenario: &str) -> Option<&ScenarioCycles> {
        self.cycles.iter().find(|c| c.scenario == scenario)
    }
}

fn ledger(v: &Json, key: &str) -> Result<[u64; 8], String> {
    let obj = v.get(key).ok_or_else(|| format!("missing \"{key}\" ledger"))?;
    let mut out = [0u64; 8];
    for (i, name) in SUBSYSTEMS.iter().enumerate() {
        out[i] = obj
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("ledger \"{key}\" missing subsystem \"{name}\""))?;
    }
    Ok(out)
}

/// Parses a bench summary document. The `cycles` section is optional
/// (older summaries and hand-assembled multi-section targets may omit
/// it); `target` and `rows` are not.
pub fn parse_summary(text: &str) -> Result<SummaryDoc, String> {
    let doc = json::parse(text)?;
    let target = doc
        .get("target")
        .and_then(Json::as_str)
        .ok_or("missing \"target\"")?
        .to_string();
    let title = doc
        .get("title")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing \"rows\"")?
        .to_vec();
    let mut cycles = Vec::new();
    if let Some(section) = doc.get("cycles").and_then(Json::as_arr) {
        for (i, sc) in section.iter().enumerate() {
            let scenario = sc
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cycles[{i}]: missing \"scenario\""))?
                .to_string();
            let mut machines = Vec::new();
            for (j, m) in sc
                .get("machines")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("cycles[{i}]: missing \"machines\""))?
                .iter()
                .enumerate()
            {
                let ctx = |msg: String| format!("cycles[{i}] ({scenario}) machine[{j}]: {msg}");
                machines.push(MachineCycles {
                    machine: m
                        .get("machine")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ctx("missing \"machine\"".into()))?,
                    unhalted: m
                        .get("unhalted")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ctx("missing \"unhalted\"".into()))?,
                    residue: m.get("residue").and_then(Json::as_f64),
                    cpu: ledger(m, "cpu").map_err(&ctx)?,
                    daemon: ledger(m, "daemon").map_err(&ctx)?,
                });
            }
            cycles.push(ScenarioCycles { scenario, machines });
        }
    }
    Ok(SummaryDoc { target, title, rows, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "target": "table1_fault_latency",
        "title": "Table 1",
        "rows": [{"config": "Linux-4KB", "faults": 409600}],
        "cycles": [{
            "scenario": "Linux-4KB",
            "machines": [{
                "machine": 0, "unhalted": 100, "residue": 0,
                "cpu": {"walk": 10, "fault": 20, "zero": 30, "copy": 0,
                        "scan": 0, "compact": 0, "dedup": 0, "idle": 40},
                "daemon": {"walk": 0, "fault": 0, "zero": 5, "copy": 0,
                           "scan": 0, "compact": 0, "dedup": 0, "idle": 0}
            }]
        }]
    }"#;

    #[test]
    fn parses_rows_and_cycle_ledgers() {
        let d = parse_summary(DOC).expect("parse");
        assert_eq!(d.target, "table1_fault_latency");
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].get("faults").and_then(Json::as_u64), Some(409600));
        let sc = d.scenario_cycles("Linux-4KB").expect("scenario");
        assert_eq!(sc.machines[0].cpu, [10, 20, 30, 0, 0, 0, 0, 40]);
        assert_eq!(sc.machines[0].daemon[2], 5);
        assert_eq!(sc.machines[0].unhalted, 100);
        assert_eq!(sc.machines[0].residue, Some(0.0));
    }

    #[test]
    fn cycles_section_is_optional_but_rows_are_not() {
        let d = parse_summary(r#"{"target":"t","title":"x","rows":[]}"#).expect("parse");
        assert!(d.cycles.is_empty());
        let err = parse_summary(r#"{"target":"t"}"#).expect_err("rows required");
        assert!(err.contains("rows"), "{err}");
    }

    #[test]
    fn null_residue_maps_to_none() {
        let text = DOC.replace("\"residue\": 0", "\"residue\": null");
        let d = parse_summary(&text).expect("parse");
        assert_eq!(d.cycles[0].machines[0].residue, None);
    }

    #[test]
    fn incomplete_ledger_is_an_error() {
        let text = DOC.replace("\"walk\": 10, ", "");
        let err = parse_summary(&text).expect_err("must reject");
        assert!(err.contains("walk"), "{err}");
    }
}
