//! ENVELOPES.md: the failure-envelope atlas rendered from the
//! `adversarial` bench summary (DESIGN.md §17).
//!
//! The adversarial target sweeps each attacker's intensity knob over
//! `[0, 1]` and records, per (attack, intensity, policy) cell, the
//! victim's completion time as a ratio to Linux-2MB under the same
//! attack. This module turns those rows into the atlas artifact:
//!
//! * the per-attack **ratio tables** (intensity × policy),
//! * the **knee table** — per policy, the first swept intensity where
//!   the policy loses to Linux-2MB ([`knee`]); a victim OOM counts as
//!   an infinite ratio, so an OOM-killed victim is always past the knee,
//! * the **latency table** — fault/promotion service percentiles at each
//!   policy's knee cell, read back from the trace journal. Families with
//!   zero promotion events render `n/a` (never `0` — the percentile of
//!   an empty histogram is a vacuous zero, not a measurement), matching
//!   the FLEET.md idle-cohort convention.
//!
//! Same bytes for the same artifacts, always: ENVELOPES.md sits inside
//! the artifact determinism gate next to REPORT.md and FLEET.md.

use crate::latency;
use crate::render::table;
use crate::summary::SummaryDoc;
use hawkeye_metrics::json::Json;
use hawkeye_trace::{ScenarioTrace, TraceDoc};

/// The first swept intensity where the victim ratio exceeds 1.0 — the
/// policy's failure knee. `points` are `(intensity, ratio)` pairs;
/// victim OOMs should be encoded as [`f64::INFINITY`] by the caller.
/// Returns `None` when the policy never loses across the sweep.
///
/// # Examples
///
/// ```
/// use hawkeye_analyze::envelope::knee;
///
/// let sweep = [(0.0, 0.95), (0.5, 1.0), (0.75, 1.2), (1.0, 1.5)];
/// assert_eq!(knee(&sweep), Some(0.75));
/// assert_eq!(knee(&[(0.0, 0.9), (1.0, 1.0)]), None);
/// ```
pub fn knee(points: &[(f64, f64)]) -> Option<f64> {
    let mut sorted: Vec<(f64, f64)> = points.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Strictly above 1.0 with a hair of float headroom: the Linux-2MB
    // baseline divides by itself to exactly 1.0, and a ratio that merely
    // ties the baseline is not a failure.
    sorted
        .iter()
        .find(|(_, y)| *y > 1.0 + 1e-9)
        .map(|(x, _)| *x)
}

fn s(row: &Json, key: &str) -> Option<String> {
    row.get(key).and_then(Json::as_str).map(str::to_string)
}

fn f(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

fn flag(row: &Json, key: &str) -> bool {
    row.get(key).and_then(Json::as_u64) == Some(1)
}

/// One parsed adversarial summary row.
struct Cell {
    attack: String,
    intensity: f64,
    policy: String,
    ratio: f64,
    victim_oom: bool,
    attacker_oom: bool,
}

fn cells(doc: &SummaryDoc) -> Option<Vec<Cell>> {
    doc.rows
        .iter()
        .map(|r| {
            Some(Cell {
                attack: s(r, "attack")?,
                intensity: f(r, "intensity")?,
                policy: s(r, "policy")?,
                ratio: f(r, "vs_linux2m")?,
                victim_oom: flag(r, "victim_oom"),
                attacker_oom: flag(r, "attacker_oom"),
            })
        })
        .collect()
}

/// The ratio used for knee detection: an OOM-killed victim never
/// finished, so its slowdown is effectively infinite.
fn effective_ratio(c: &Cell) -> f64 {
    if c.victim_oom {
        f64::INFINITY
    } else {
        c.ratio
    }
}

fn push_unique(list: &mut Vec<String>, v: &str) {
    if !list.iter().any(|x| x == v) {
        list.push(v.to_string());
    }
}

fn ratio_cell(c: &Cell) -> String {
    let mut out = if c.victim_oom {
        "∞ (OOM)".to_string()
    } else {
        format!("{:.3}", c.ratio)
    };
    if c.attacker_oom {
        out.push_str(" †");
    }
    out
}

/// The latency row for one knee cell, from the scenario's journal:
/// fault count/p50/p99 and promotion count/p50/p99 in cycles. Zero
/// promotion events render `n/a` — see the module docs.
fn latency_cells(sc: &ScenarioTrace) -> [String; 6] {
    let fault = latency(sc, "fault").service;
    let promote = latency(sc, "promote").service;
    let p = |h: &hawkeye_metrics::LogHistogram, q: f64| {
        if h.count() == 0 {
            "n/a".to_string()
        } else {
            h.percentile(q).to_string()
        }
    };
    [
        fault.count().to_string(),
        p(&fault, 50.0),
        p(&fault, 99.0),
        promote.count().to_string(),
        p(&promote, 50.0),
        p(&promote, 99.0),
    ]
}

/// Renders ENVELOPES.md from the `adversarial` summary (and, when the
/// run traced, the matching journal for the knee-cell latency table).
/// Returns `None` for any other target — callers skip the file.
pub fn envelopes_md(doc: &SummaryDoc, trace: Option<&TraceDoc>) -> Option<String> {
    if doc.target != "adversarial" || doc.rows.is_empty() {
        return None;
    }
    let cells = cells(doc)?;
    let (mut attacks, mut policies, mut intensities) = (Vec::new(), Vec::new(), Vec::<f64>::new());
    for c in &cells {
        push_unique(&mut attacks, &c.attack);
        push_unique(&mut policies, &c.policy);
        if !intensities.iter().any(|x| x == &c.intensity) {
            intensities.push(c.intensity);
        }
    }
    intensities.sort_by(f64::total_cmp);
    let cell = |attack: &str, intensity: f64, policy: &str| {
        cells
            .iter()
            .find(|c| c.attack == attack && c.intensity == intensity && c.policy == policy)
    };

    let mut out = String::new();
    out.push_str("# Failure envelopes\n\n");
    out.push_str(&format!("{}\n\n", doc.title));
    out.push_str(
        "The failure-envelope atlas (DESIGN.md §17): every cell is the\n\
         adversarial victim's completion time under one policy, divided by\n\
         its completion time under Linux-2MB *under the same attack at the\n\
         same intensity*. Ratios above 1.000 mean the policy lost to\n\
         static huge pages; the first swept intensity where that happens\n\
         is the policy's **knee**. A victim OOM counts as an infinite\n\
         ratio. `†` marks cells where the *attacker* was OOM-killed —\n\
         overshooting attacks self-destruct before their pressure lands,\n\
         which is why the bloat envelope is non-monotone in intensity.\n\n",
    );

    for attack in &attacks {
        out.push_str(&format!("## `{attack}` attack\n\n"));
        let mut headers = vec!["Intensity".to_string()];
        headers.extend(policies.iter().cloned());
        let rows: Vec<Vec<String>> = intensities
            .iter()
            .map(|i| {
                let mut row = vec![format!("{i:.2}")];
                for p in &policies {
                    row.push(cell(attack, *i, p).map_or("—".to_string(), ratio_cell));
                }
                row
            })
            .collect();
        table(&mut out, &headers, &rows);
        out.push('\n');
    }

    out.push_str("## Failure knees\n\n");
    let mut knee_rows: Vec<Vec<String>> = Vec::new();
    let mut knee_cells: Vec<(String, String, f64)> = Vec::new();
    for attack in &attacks {
        for policy in &policies {
            let sweep: Vec<(f64, f64)> = intensities
                .iter()
                .filter_map(|i| cell(attack, *i, policy).map(|c| (*i, effective_ratio(c))))
                .collect();
            let k = knee(&sweep);
            knee_rows.push(vec![
                format!("`{attack}`"),
                policy.clone(),
                k.map_or("none".to_string(), |x| format!("{x:.2}")),
                k.and_then(|x| cell(attack, x, policy))
                    .map_or("—".to_string(), ratio_cell),
            ]);
            if let Some(x) = k {
                knee_cells.push((attack.clone(), policy.clone(), x));
            }
        }
    }
    let headers: Vec<String> = ["Attack", "Policy", "Knee intensity", "Ratio at knee"]
        .map(String::from)
        .into();
    table(&mut out, &headers, &knee_rows);

    // Latency at the knee, when the run traced: what breaking actually
    // costs, in fault/promotion service cycles.
    if let Some(trace) = trace {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (attack, policy, x) in &knee_cells {
            let name = format!("{attack} i={x:.2} {policy}");
            let Some(sc) = trace.scenarios.iter().find(|s| s.name == name) else {
                continue;
            };
            let lat = latency_cells(sc);
            let mut row = vec![format!("`{attack}`"), policy.clone(), format!("{x:.2}")];
            row.extend(lat);
            rows.push(row);
        }
        if !rows.is_empty() {
            out.push_str("\n## Latency at the knee\n\n");
            out.push_str(
                "Fault and promotion service times (cycles) in each knee\n\
                 cell's journal. `n/a` means the family recorded zero\n\
                 promotion events — an empty histogram has no percentiles.\n\n",
            );
            let headers: Vec<String> = [
                "Attack",
                "Policy",
                "Intensity",
                "Faults",
                "fault p50",
                "fault p99",
                "Promotions",
                "promote p50",
                "promote p99",
            ]
            .map(String::from)
            .into();
            table(&mut out, &headers, &rows);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::parse_summary;
    use hawkeye_metrics::Cycles;
    use hawkeye_trace::{TraceEvent, TraceRecord};

    #[test]
    fn knee_finds_first_crossing_on_a_monotone_sweep() {
        let sweep = [
            (0.0, 0.90),
            (0.25, 0.95),
            (0.5, 1.0),
            (0.75, 1.2),
            (1.0, 1.5),
        ];
        assert_eq!(knee(&sweep), Some(0.75));
    }

    #[test]
    fn knee_is_none_when_the_policy_never_loses() {
        assert_eq!(knee(&[(0.0, 0.9), (0.5, 1.0), (1.0, 0.97)]), None);
        assert_eq!(knee(&[]), None);
    }

    #[test]
    fn knee_treats_oom_as_infinite_and_sorts_unordered_input() {
        // A victim OOM at low intensity dominates a finite loss later.
        assert_eq!(
            knee(&[(1.0, 1.2), (0.25, f64::INFINITY), (0.5, 0.9)]),
            Some(0.25)
        );
    }

    fn summary(rows: &str) -> SummaryDoc {
        parse_summary(&format!(
            r#"{{"target":"adversarial","title":"sweep","rows":[{rows}]}}"#
        ))
        .expect("summary")
    }

    fn row(attack: &str, i: f64, policy: &str, ratio: f64, voom: u64, aoom: u64) -> String {
        format!(
            r#"{{"attack":"{attack}","intensity":{i},"policy":"{policy}","vs_linux2m":{ratio},"victim_oom":{voom},"attacker_oom":{aoom}}}"#
        )
    }

    #[test]
    fn envelopes_md_tabulates_ratios_and_knees() {
        let rows = [
            row("bloat", 0.0, "Linux-2MB", 1.0, 0, 0),
            row("bloat", 0.0, "HawkEye-G", 1.0, 0, 0),
            row("bloat", 0.75, "Linux-2MB", 1.0, 0, 0),
            row("bloat", 0.75, "HawkEye-G", 1.066, 0, 0),
            row("bloat", 1.0, "Linux-2MB", 1.0, 0, 1),
            row("bloat", 1.0, "HawkEye-G", 1.0, 0, 1),
        ]
        .join(",");
        let md = envelopes_md(&summary(&rows), None).expect("adversarial renders");
        assert!(md.contains("## `bloat` attack"), "{md}");
        assert!(md.contains("| 0.75 | 1.000 | 1.066 |"), "{md}");
        assert!(
            md.contains("| 1.00 | 1.000 † | 1.000 † |"),
            "attacker OOM marked: {md}"
        );
        assert!(
            md.contains("| `bloat` | HawkEye-G | 0.75 | 1.066 |"),
            "knee row: {md}"
        );
        assert!(
            md.contains("| `bloat` | Linux-2MB | none | — |"),
            "baseline never loses: {md}"
        );
        assert_eq!(
            envelopes_md(&summary(&rows), None),
            envelopes_md(&summary(&rows), None)
        );
    }

    #[test]
    fn envelopes_md_marks_victim_oom_as_infinite() {
        let rows = [
            row("frag", 0.0, "Linux-2MB", 1.0, 0, 0),
            row("frag", 0.0, "HawkEye-G", 0.9, 0, 0),
            row("frag", 1.0, "Linux-2MB", 1.0, 0, 0),
            row("frag", 1.0, "HawkEye-G", 0.4, 1, 0),
        ]
        .join(",");
        let md = envelopes_md(&summary(&rows), None).expect("renders");
        assert!(md.contains("∞ (OOM)"), "{md}");
        assert!(
            md.contains("| `frag` | HawkEye-G | 1.00 | ∞ (OOM) |"),
            "oom is the knee: {md}"
        );
    }

    #[test]
    fn envelopes_md_skips_other_targets() {
        let doc = parse_summary(r#"{"target":"fleet_slo","title":"x","rows":[{"a":1}]}"#)
            .expect("summary");
        assert_eq!(envelopes_md(&doc, None), None);
    }

    /// Satellite fix: a knee cell whose journal has faults but zero
    /// promotion events must render `n/a` percentiles, not the vacuous
    /// `0` an empty histogram would report.
    #[test]
    fn latency_table_renders_na_for_zero_promote_events() {
        let rows = [
            row("bloat", 0.0, "Linux-2MB", 1.0, 0, 0),
            row("bloat", 0.0, "Linux-4KB", 1.1, 0, 0),
        ]
        .join(",");
        let rec = |at, cycles| TraceRecord {
            at: Cycles::new(at),
            pid: 1,
            machine: 0,
            event: TraceEvent::Fault {
                vpn: 1,
                huge: false,
                cow: false,
                cycles,
            },
        };
        let trace = TraceDoc {
            target: "adversarial".into(),
            scenarios: vec![ScenarioTrace {
                name: "bloat i=0.00 Linux-4KB".into(),
                dropped: 0,
                records: vec![rec(100, 900), rec(200, 1100)],
            }],
        };
        let md = envelopes_md(&summary(&rows), Some(&trace)).expect("renders");
        assert!(md.contains("## Latency at the knee"), "{md}");
        // Faults measured; promotions: count 0, percentiles n/a.
        assert!(md.contains("| 2 | "), "fault count present: {md}");
        assert!(
            md.contains("| 0 | n/a | n/a |"),
            "zero promotes render n/a: {md}"
        );
        assert!(
            !md.contains("| 0 | 0 | 0 |"),
            "no vacuous zero percentiles: {md}"
        );
    }
}
