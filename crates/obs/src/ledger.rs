//! The perf-trajectory ledger: schema-versioned per-run records of
//! deterministic work counters, rendered run-over-run as `TREND.md` and
//! gated by [`regressions`].
//!
//! # What is gated and what is advisory
//!
//! The gate only ever reads **deterministic** quantities: scheduler
//! quanta per target and the REPORT.md check tally. Host wall-clock is
//! recorded as the suite's total seconds but quarantined exactly like
//! WALLCLOCK.md: rendered as an advisory column, never a gate input, so
//! the gate cannot flake on a slow host.
//!
//! # Versioning policy
//!
//! [`LEDGER_SCHEMA_VERSION`] is stamped into every `BENCH_<n>.json`.
//! Comparing runs across schema versions is refused loudly (a gate
//! failure, not a silent skip): a schema bump must land together with a
//! reseeded baseline in the same change — see DESIGN.md §16. Entries of
//! an older schema still load as history: v1 entries carry two more
//! fields (a per-target count of quanta charged by the since-removed
//! event-skip scheduler, and an advisory wall-clock digest), which the
//! parser ignores, and their `quanta_total` missed rounds driven outside
//! a run call (the virtualized targets' guests).

use hawkeye_metrics::json::{self, Json};

use crate::doc::{arr_field, f64_field, str_field, u64_field};

/// Schema version stamped into every ledger entry.
pub const LEDGER_SCHEMA_VERSION: u64 = 2;

/// Per-target deterministic work counters for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerTarget {
    /// Suite target name.
    pub name: String,
    /// Scheduler quanta executed (simulated work, deterministic).
    pub quanta_total: u64,
}

/// One `BENCH_<n>.json` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRun {
    /// Schema version at write time.
    pub schema_version: u64,
    /// Monotonic run number (the `<n>` in the filename).
    pub run: u64,
    /// REPORT.md checks that passed at the default slack.
    pub checks_passed: u64,
    /// Total REPORT.md checks evaluated.
    pub checks_total: u64,
    /// Per-target counters, in suite order.
    pub targets: Vec<LedgerTarget>,
    /// Advisory: total host wall-clock for the suite, seconds.
    pub wall_total_secs: f64,
}

impl LedgerRun {
    /// Sum of `quanta_total` over all targets.
    pub fn quanta_total(&self) -> u64 {
        self.targets.iter().map(|t| t.quanta_total).sum()
    }

    /// The `BENCH_<n>.json` document, in [`LedgerRun::parse`]'s key order.
    pub fn to_json(&self) -> Json {
        let targets = self
            .targets
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("name", Json::str(t.name.clone())),
                    ("quanta_total", Json::int(t.quanta_total)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::int(self.schema_version)),
            ("run", Json::int(self.run)),
            ("checks_passed", Json::int(self.checks_passed)),
            ("checks_total", Json::int(self.checks_total)),
            ("targets", Json::Arr(targets)),
            ("wall_total_secs", Json::num(self.wall_total_secs)),
        ])
    }

    /// Parses one `BENCH_<n>.json` entry — the exact inverse of
    /// [`LedgerRun::to_json`]. A missing field is an error; fields this
    /// schema no longer writes are ignored, so older entries load.
    pub fn parse(text: &str) -> Result<LedgerRun, String> {
        let v = json::parse(text)?;
        let ctx = "ledger run";
        Ok(LedgerRun {
            schema_version: u64_field(&v, "schema_version", ctx)?,
            run: u64_field(&v, "run", ctx)?,
            checks_passed: u64_field(&v, "checks_passed", ctx)?,
            checks_total: u64_field(&v, "checks_total", ctx)?,
            targets: arr_field(&v, "targets", ctx, |t, i| {
                let ctx = &format!("ledger target {i}");
                Ok(LedgerTarget {
                    name: str_field(t, "name", ctx)?,
                    quanta_total: u64_field(t, "quanta_total", ctx)?,
                })
            })?,
            wall_total_secs: f64_field(&v, "wall_total_secs", ctx)?,
        })
    }
}

/// Allowed relative growth in a target's `quanta_total` before the gate
/// calls it a work regression. The counters are deterministic, so any
/// change means the model changed; the slack only exists so deliberate
/// small reworkings don't force a baseline reseed.
const QUANTA_SLACK: f64 = 0.05;

/// The regression gate: compares the latest run against the previous
/// one and returns one message per violation (empty = pass). Only
/// deterministic counters participate; wall-clock never does.
pub fn regressions(prev: &LedgerRun, cur: &LedgerRun) -> Vec<String> {
    let mut out = Vec::new();
    if prev.schema_version != cur.schema_version {
        out.push(format!(
            "ledger schema changed v{} -> v{}: gate refused; reseed the baseline \
             alongside the schema bump (DESIGN.md §16)",
            prev.schema_version, cur.schema_version
        ));
        return out;
    }
    if cur.checks_passed < cur.checks_total {
        out.push(format!(
            "run {}: {}/{} REPORT.md checks passed",
            cur.run, cur.checks_passed, cur.checks_total
        ));
    }
    if cur.checks_passed < prev.checks_passed {
        out.push(format!(
            "checks passed fell {} -> {} (run {} vs {})",
            prev.checks_passed, cur.checks_passed, prev.run, cur.run
        ));
    }
    for pt in &prev.targets {
        let Some(ct) = cur.targets.iter().find(|t| t.name == pt.name) else {
            out.push(format!("target `{}` disappeared from run {}", pt.name, cur.run));
            continue;
        };
        let limit = (pt.quanta_total as f64 * (1.0 + QUANTA_SLACK)) as u64;
        if ct.quanta_total > limit {
            out.push(format!(
                "`{}`: quanta_total {} -> {} (+{:.1}% > {:.0}% slack) — simulated work regressed",
                pt.name,
                pt.quanta_total,
                ct.quanta_total,
                100.0 * (ct.quanta_total as f64 / pt.quanta_total.max(1) as f64 - 1.0),
                100.0 * QUANTA_SLACK
            ));
        }
    }
    out
}

fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Renders `TREND.md`: a run-over-run summary table plus a per-target
/// delta table for the latest pair of runs. `runs` must be sorted by run
/// number (the loader does this). Pure and deterministic.
pub fn trend_md(runs: &[LedgerRun]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("# Perf trajectory\n\n");
    out.push_str(&format!(
        "{} ledger run(s) (`BENCH_<n>.json`, schema v{}). Gated columns are \
         deterministic simulation counters; wall-clock is host timing, \
         **advisory only** (never gated — see DESIGN.md §16).\n\n",
        runs.len(),
        LEDGER_SCHEMA_VERSION
    ));
    if runs.is_empty() {
        out.push_str("No runs recorded yet: run `hawkeye-report` to append one.\n");
        return out;
    }

    out.push_str("## Run-over-run\n\n");
    out.push_str("| Run | Targets | Σ quanta | Δ quanta | Checks | Wall s (advisory) |\n");
    out.push_str("|-----|---------|----------|----------|--------|-------------------|\n");
    let mut prev: Option<&LedgerRun> = None;
    for r in runs {
        let delta = match prev {
            Some(p) if p.quanta_total() > 0 => {
                let d = 100.0 * (r.quanta_total() as f64 / p.quanta_total() as f64 - 1.0);
                format!("{d:+.2}%")
            }
            _ => "n/a".to_string(),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {}/{} | {} |\n",
            r.run,
            r.targets.len(),
            r.quanta_total(),
            delta,
            r.checks_passed,
            r.checks_total,
            f1(r.wall_total_secs)
        ));
        prev = Some(r);
    }
    out.push('\n');

    if runs.len() >= 2 {
        let (p, c) = (&runs[runs.len() - 2], &runs[runs.len() - 1]);
        out.push_str(&format!("## Per-target: run {} vs run {}\n\n", c.run, p.run));
        out.push_str("| Target | Quanta prev | Quanta cur | Δ |\n");
        out.push_str("|--------|-------------|------------|---|\n");
        for ct in &c.targets {
            let pt = p.targets.iter().find(|t| t.name == ct.name);
            let qp = pt.map_or("new".to_string(), |pt| pt.quanta_total.to_string());
            let delta = match pt {
                Some(pt) if pt.quanta_total > 0 => format!(
                    "{:+.2}%",
                    100.0 * (ct.quanta_total as f64 / pt.quanta_total as f64 - 1.0)
                ),
                _ => "n/a".to_string(),
            };
            out.push_str(&format!("| {} | {} | {} | {} |\n", ct.name, qp, ct.quanta_total, delta));
        }
        out.push('\n');
        let regs = regressions(p, c);
        if regs.is_empty() {
            out.push_str("Regression gate: **pass** — no deterministic counter regressed.\n");
        } else {
            out.push_str("Regression gate: **FAIL**\n\n");
            for r in &regs {
                out.push_str(&format!("- {r}\n"));
            }
        }
    } else {
        out.push_str(
            "Single run: deltas and the regression gate activate once a second \
             run is appended.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: u64, quanta: &[u64], checks: (u64, u64)) -> LedgerRun {
        LedgerRun {
            schema_version: LEDGER_SCHEMA_VERSION,
            run: n,
            checks_passed: checks.0,
            checks_total: checks.1,
            targets: quanta
                .iter()
                .enumerate()
                .map(|(i, &t)| LedgerTarget { name: format!("t{i}"), quanta_total: t })
                .collect(),
            wall_total_secs: 70.0 + n as f64,
        }
    }

    #[test]
    fn ledger_entry_round_trips_through_writer_and_parser() {
        let mut entry = run(9, &[1000, 5000], (1, 2));
        entry.wall_total_secs = 4.25;
        let text = entry.to_json().to_string();
        assert!(text.starts_with(r#"{"schema_version":2,"run":9,"checks_passed":1,"#), "{text}");
        let back = LedgerRun::parse(&text).expect("parse back");
        assert_eq!(back, entry, "writer and parser are exact inverses");
        assert_eq!(back.to_json().to_string(), text);
        let err = LedgerRun::parse(r#"{"schema_version":2}"#).expect_err("missing fields");
        assert!(err.contains("\"run\""), "{err}");
    }

    #[test]
    fn v1_entries_load_as_history() {
        // The committed v1 baseline, as the ledger directory holds it.
        let v1 = include_str!("../../../bench-ledger/BENCH_10.json");
        let old = LedgerRun::parse(v1).expect("v1 entry loads");
        assert_eq!((old.schema_version, old.run, old.targets.len()), (1, 10, 22));
        assert_eq!(old.targets[0].name, "table1_fault_latency");
        assert_eq!(old.targets[0].quanta_total, 4211);
        let cur = run(11, &[4211], (85, 85));
        let regs = regressions(&old, &cur);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("v1 -> v2"), "{regs:?}");
        assert!(trend_md(&[old, cur]).contains("| 10 | 22 | 277126 |"));
    }

    #[test]
    fn identical_counters_pass_the_gate() {
        let a = run(9, &[1000, 5000], (67, 67));
        let mut b = run(10, &[1000, 5000], (67, 67));
        b.wall_total_secs = 500.0; // wall-clock is advisory: never gated
        assert!(regressions(&a, &b).is_empty());
    }

    #[test]
    fn injected_counter_regression_fails_the_gate() {
        let a = run(9, &[1000, 5000], (67, 67));
        // +20% quanta on one target; +4% on the other stays in slack.
        let b = run(10, &[1200, 5200], (67, 67));
        let regs = regressions(&a, &b);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("`t0`: quanta_total 1000 -> 1200"), "{regs:?}");
    }

    #[test]
    fn check_and_target_regressions_fail_the_gate() {
        let a = run(9, &[1000, 5000], (67, 67));
        let b = run(10, &[1000], (66, 67));
        let regs = regressions(&a, &b);
        assert!(regs.iter().any(|r| r.contains("66/67")), "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("fell 67 -> 66")), "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("disappeared")), "{regs:?}");
    }

    #[test]
    fn schema_mismatch_refuses_loudly() {
        let a = run(9, &[1000], (67, 67));
        let mut b = run(10, &[1000], (67, 67));
        b.schema_version += 1;
        let regs = regressions(&a, &b);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("reseed the baseline"));
    }

    #[test]
    fn trend_md_renders_deltas_and_the_gate_verdict() {
        let runs = vec![run(9, &[1000, 5000], (67, 67)), run(10, &[1010, 5000], (67, 67))];
        let md = trend_md(&runs);
        assert!(md.contains("# Perf trajectory"));
        assert!(md.contains("| 9 |"));
        assert!(md.contains("+0.17%"), "run-over-run delta rendered:\n{md}");
        assert!(md.contains("## Per-target: run 10 vs run 9"));
        assert!(md.contains("| t0 | 1000 | 1010 | +1.00% |"), "{md}");
        assert!(md.contains("Regression gate: **pass**"));
        assert_eq!(md, trend_md(&runs.clone()), "pure function");
        // And a failing pair renders FAIL with the messages inline.
        let bad = vec![runs[0].clone(), run(10, &[2000, 5000], (67, 67))];
        assert!(trend_md(&bad).contains("Regression gate: **FAIL**"));
    }

    #[test]
    fn empty_and_single_run_ledgers_render() {
        assert!(trend_md(&[]).contains("No runs recorded"));
        let one = vec![run(9, &[10], (67, 67))];
        assert!(trend_md(&one).contains("Single run"));
    }
}
