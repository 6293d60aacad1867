//! The perf-trajectory ledger: schema-versioned per-run records of
//! deterministic work counters, rendered run-over-run as `TREND.md` and
//! gated by [`regressions`].
//!
//! # What is gated and what is advisory
//!
//! The gate only ever reads **deterministic** quantities: scheduler
//! quanta (total work and closed-form-skipped), and the REPORT.md check
//! tally. Host wall-clock is recorded — total seconds plus an FNV-1a
//! digest of the per-target timings — but quarantined exactly like
//! WALLCLOCK.md: rendered as advisory columns, never a gate input, so
//! the gate cannot flake on a slow host.
//!
//! # Versioning policy
//!
//! [`LEDGER_SCHEMA_VERSION`] is stamped into every `BENCH_<n>.json`.
//! Comparing runs across schema versions is refused loudly (a gate
//! failure, not a silent skip): a schema bump must land together with a
//! reseeded baseline in the same change — see DESIGN.md §16.

use hawkeye_metrics::json::{self, Json};

use crate::doc::{arr_field, f64_field, str_field, u64_field};

/// Schema version stamped into every ledger entry.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// Per-target deterministic work counters for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerTarget {
    /// Suite target name.
    pub name: String,
    /// Scheduler quanta executed (simulated work, deterministic).
    pub quanta_total: u64,
    /// Quanta charged in closed form by the event-skip scheduler.
    pub quanta_skipped: u64,
}

impl LedgerTarget {
    /// Fraction of quanta charged in closed form.
    pub fn skip_ratio(&self) -> f64 {
        if self.quanta_total == 0 {
            0.0
        } else {
            self.quanta_skipped as f64 / self.quanta_total as f64
        }
    }
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
    /// Advisory: FNV-1a 64 digest (hex) of per-target wall timings.
    pub wall_digest: String,
}

impl LedgerRun {
    /// Sum of `quanta_total` over all targets.
    pub fn quanta_total(&self) -> u64 {
        self.targets.iter().map(|t| t.quanta_total).sum()
    }

    /// Sum of `quanta_skipped` over all targets.
    pub fn quanta_skipped(&self) -> u64 {
        self.targets.iter().map(|t| t.quanta_skipped).sum()
    }

    /// Suite-wide closed-form skip ratio.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.quanta_total();
        if total == 0 {
            0.0
        } else {
            self.quanta_skipped() as f64 / total as f64
        }
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
                    ("quanta_skipped", Json::int(t.quanta_skipped)),
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
            ("wall_digest", Json::str(self.wall_digest.clone())),
        ])
    }

    /// Parses one `BENCH_<n>.json` entry — the exact inverse of
    /// [`LedgerRun::to_json`]. A missing field is an error.
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
                    quanta_skipped: u64_field(t, "quanta_skipped", ctx)?,
                })
            })?,
            wall_total_secs: f64_field(&v, "wall_total_secs", ctx)?,
            wall_digest: str_field(&v, "wall_digest", ctx)?,
        })
    }
}

/// FNV-1a 64-bit hash, used for the advisory wall-clock digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Allowed relative growth in a target's `quanta_total` before the gate
/// calls it a work regression. The counters are deterministic, so any
/// change means the model changed; the slack only exists so deliberate
/// small reworkings don't force a baseline reseed.
const QUANTA_SLACK: f64 = 0.05;
/// Allowed drop in skip ratio (percentage points / 100).
const SKIP_SLACK: f64 = 0.02;

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
        if pt.skip_ratio() - ct.skip_ratio() > SKIP_SLACK {
            out.push(format!(
                "`{}`: event-skip ratio {:.3} -> {:.3} — closed-form scheduling regressed",
                pt.name,
                pt.skip_ratio(),
                ct.skip_ratio()
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
    out.push_str(
        "| Run | Targets | Σ quanta | Δ quanta | Skip ratio | Checks | Wall s (advisory) |\n",
    );
    out.push_str(
        "|-----|---------|----------|----------|------------|--------|-------------------|\n",
    );
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
            "| {} | {} | {} | {} | {:.3} | {}/{} | {} |\n",
            r.run,
            r.targets.len(),
            r.quanta_total(),
            delta,
            r.skip_ratio(),
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
        out.push_str("| Target | Quanta prev | Quanta cur | Δ | Skip prev | Skip cur |\n");
        out.push_str("|--------|-------------|------------|---|-----------|----------|\n");
        for ct in &c.targets {
            let (qp, sp) = match p.targets.iter().find(|t| t.name == ct.name) {
                Some(pt) => (pt.quanta_total.to_string(), format!("{:.3}", pt.skip_ratio())),
                None => ("new".to_string(), "n/a".to_string()),
            };
            let delta = match p.targets.iter().find(|t| t.name == ct.name) {
                Some(pt) if pt.quanta_total > 0 => format!(
                    "{:+.2}%",
                    100.0 * (ct.quanta_total as f64 / pt.quanta_total as f64 - 1.0)
                ),
                _ => "n/a".to_string(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.3} |\n",
                ct.name,
                qp,
                ct.quanta_total,
                delta,
                sp,
                ct.skip_ratio()
            ));
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

    fn run(n: u64, quanta: &[(u64, u64)], checks: (u64, u64)) -> LedgerRun {
        LedgerRun {
            schema_version: LEDGER_SCHEMA_VERSION,
            run: n,
            checks_passed: checks.0,
            checks_total: checks.1,
            targets: quanta
                .iter()
                .enumerate()
                .map(|(i, &(t, s))| LedgerTarget {
                    name: format!("t{i}"),
                    quanta_total: t,
                    quanta_skipped: s,
                })
                .collect(),
            wall_total_secs: 70.0 + n as f64,
            wall_digest: format!("{:016x}", fnv1a(&n.to_le_bytes())),
        }
    }

    #[test]
    fn ledger_entry_round_trips_through_writer_and_parser() {
        let mut entry = run(9, &[(1000, 800), (5000, 4500)], (1, 2));
        entry.wall_total_secs = 4.25;
        let text = entry.to_json().to_string();
        assert!(text.starts_with(r#"{"schema_version":1,"run":9,"checks_passed":1,"#), "{text}");
        let back = LedgerRun::parse(&text).expect("parse back");
        assert_eq!(back, entry, "writer and parser are exact inverses");
        assert_eq!(back.to_json().to_string(), text);
        let err = LedgerRun::parse(r#"{"schema_version":1}"#).expect_err("missing fields");
        assert!(err.contains("\"run\""), "{err}");
    }

    #[test]
    fn identical_counters_pass_the_gate() {
        let a = run(9, &[(1000, 800), (5000, 4500)], (67, 67));
        let mut b = run(10, &[(1000, 800), (5000, 4500)], (67, 67));
        b.wall_total_secs = 500.0; // wall-clock is advisory: never gated
        b.wall_digest = "ffffffffffffffff".into();
        assert!(regressions(&a, &b).is_empty());
    }

    #[test]
    fn injected_counter_regression_fails_the_gate() {
        let a = run(9, &[(1000, 800), (5000, 4500)], (67, 67));
        // +20% quanta on one target, skip ratio collapse on the other.
        let b = run(10, &[(1200, 960), (5000, 2000)], (67, 67));
        let regs = regressions(&a, &b);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs[0].contains("quanta_total"));
        assert!(regs[1].contains("event-skip ratio"));
    }

    #[test]
    fn check_and_target_regressions_fail_the_gate() {
        let a = run(9, &[(1000, 800), (5000, 4500)], (67, 67));
        let b = run(10, &[(1000, 800)], (66, 67));
        let regs = regressions(&a, &b);
        assert!(regs.iter().any(|r| r.contains("66/67")), "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("fell 67 -> 66")), "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("disappeared")), "{regs:?}");
    }

    #[test]
    fn schema_mismatch_refuses_loudly() {
        let a = run(9, &[(1000, 800)], (67, 67));
        let mut b = run(10, &[(1000, 800)], (67, 67));
        b.schema_version += 1;
        let regs = regressions(&a, &b);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("reseed the baseline"));
    }

    #[test]
    fn trend_md_renders_deltas_and_the_gate_verdict() {
        let runs = vec![
            run(9, &[(1000, 800), (5000, 4500)], (67, 67)),
            run(10, &[(1010, 810), (5000, 4500)], (67, 67)),
        ];
        let md = trend_md(&runs);
        assert!(md.contains("# Perf trajectory"));
        assert!(md.contains("| 9 |"));
        assert!(md.contains("+0.17%"), "run-over-run delta rendered:\n{md}");
        assert!(md.contains("## Per-target: run 10 vs run 9"));
        assert!(md.contains("Regression gate: **pass**"));
        assert_eq!(md, trend_md(&runs.clone()), "pure function");
        // And a failing pair renders FAIL with the messages inline.
        let bad = vec![runs[0].clone(), run(10, &[(2000, 800), (5000, 4500)], (67, 67))];
        assert!(trend_md(&bad).contains("Regression gate: **FAIL**"));
    }

    #[test]
    fn empty_and_single_run_ledgers_render() {
        assert!(trend_md(&[]).contains("No runs recorded"));
        let one = vec![run(9, &[(10, 5)], (67, 67))];
        assert!(trend_md(&one).contains("Single run"));
    }

    #[test]
    fn fnv1a_is_the_reference_hash() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
