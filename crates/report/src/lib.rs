//! `hawkeye-report`: the one-command paper-reproduction pipeline.
//!
//! One invocation runs the full scenario suite
//! ([`hawkeye_bench::suite::TARGETS`]) in-process with tracing on,
//! collects every target's summary JSON and `.trace.json` journal, loads
//! them back through the `hawkeye-analyze` parsers, and renders a single
//! deterministic `target/report/REPORT.md` that puts every table and
//! figure of DESIGN.md §4's experiment index side-by-side with the
//! paper's published number and a percent delta (DESIGN.md §12).
//!
//! Two orthogonal columns per check cell:
//!
//! * **Δ vs paper** — how far the reproduced value is from the paper's
//!   published number. Informational: scaled-down footprints make many
//!   absolute deltas large by design (EXPERIMENTS.md "reading guide").
//! * **tolerance band** — the `[lo, hi]` interval the reproduced value
//!   must land in, calibrated against the recorded reference run. This
//!   is the pass/fail reproduction gate (`hawkeye-report --check`): the
//!   simulator is deterministic, so any value outside its band means the
//!   model changed and EXPERIMENTS.md needs regenerating.
//!
//! The report inherits the determinism rule of DESIGN.md §9: REPORT.md
//! is byte-identical at any `--threads` value (golden-file tested).

pub mod paper;

use std::path::{Path, PathBuf};

use hawkeye_analyze::summary::{parse_summary, SummaryDoc};
use hawkeye_bench::scenario::panic_message;
use hawkeye_bench::suite::{self, Target};
use hawkeye_bench::Run;
use hawkeye_trace::{parse_trace, TraceDoc};

/// The inclusive `[lo, hi]` interval a reproduced value must land in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower edge (inclusive).
    pub lo: f64,
    /// Upper edge (inclusive).
    pub hi: f64,
}

impl Band {
    /// An explicit interval.
    pub fn new(lo: f64, hi: f64) -> Band {
        Band { lo, hi }
    }

    /// A relative band: `center ± rel·|center|`.
    pub fn around(center: f64, rel: f64) -> Band {
        let half = center.abs() * rel;
        Band { lo: center - half, hi: center + half }
    }

    /// A degenerate band for values that must match exactly (counts,
    /// boolean gates).
    pub fn exact(v: f64) -> Band {
        Band { lo: v, hi: v }
    }

    /// Widens the band's half-width by `slack` (a fraction: `0.5` makes
    /// the band 1.5× as wide around the same center). Degenerate bands
    /// stay degenerate — exact gates don't loosen.
    pub fn widen(self, slack: f64) -> Band {
        let center = (self.lo + self.hi) / 2.0;
        let half = (self.hi - self.lo) / 2.0 * (1.0 + slack);
        Band { lo: center - half, hi: center + half }
    }

    /// Inclusive containment.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// One paper-vs-repro comparison cell.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared (derived ratio or direct value).
    pub metric: String,
    /// The paper's published number, when it publishes one at a
    /// comparable scale (`None` renders as `—` with no delta).
    pub paper: Option<f64>,
    /// The reproduced value; `None` means the metric was missing from
    /// the summary, which always fails the gate.
    pub measured: Option<f64>,
    /// The reproduction gate (on `measured`, not on the delta).
    pub band: Band,
}

impl Check {
    /// Builds a check row.
    pub fn new(
        metric: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        band: Band,
    ) -> Check {
        Check { metric: metric.into(), paper, measured, band }
    }

    /// Percent delta of the reproduced value vs the paper's number.
    pub fn delta_pct(&self) -> Option<f64> {
        match (self.paper, self.measured) {
            (Some(p), Some(m)) if p != 0.0 => Some((m - p) / p * 100.0),
            _ => None,
        }
    }

    /// The pass/fail gate at a given `--slack` widening.
    pub fn passes(&self, slack: f64) -> bool {
        self.measured.is_some_and(|m| self.band.widen(slack).contains(m))
    }
}

/// A preformatted figure block (sparkline table, bar chart, cycle
/// ledger) rendered inside a fenced code block.
#[derive(Debug, Clone)]
pub struct Figure {
    /// One-line caption printed above the block.
    pub caption: String,
    /// Preformatted body (already line-broken).
    pub body: String,
}

/// One REPORT.md section: a row of DESIGN.md §4's experiment index.
#[derive(Debug, Clone)]
pub struct Section {
    /// Bench-target name.
    pub target: &'static str,
    /// Paper artifact ("Table 1", "Fig 5", …).
    pub paper_ref: &'static str,
    /// The bench target's own title line.
    pub title: String,
    /// Pass/fail comparison rows.
    pub checks: Vec<Check>,
    /// Figure reproductions.
    pub figures: Vec<Figure>,
    /// Free-text caveats (known divergences, scaling notes).
    pub notes: Vec<String>,
    /// Loud data-quality warnings (e.g. trace ring-buffer drops) rendered
    /// as blockquoted ⚠️ rows right under the section heading — these mean
    /// the numbers below are computed from incomplete data.
    pub warnings: Vec<String>,
}

impl Section {
    /// `(passed, total)` check counts at a given slack.
    pub fn tally(&self, slack: f64) -> (usize, usize) {
        let passed = self.checks.iter().filter(|c| c.passes(slack)).count();
        (passed, self.checks.len())
    }
}

/// Everything loaded back from disk for one suite target.
#[derive(Debug, Clone)]
pub struct TargetData {
    /// Bench-target name.
    pub name: &'static str,
    /// Paper artifact label.
    pub paper_ref: &'static str,
    /// The parsed summary JSON (rows + cycle ledgers).
    pub summary: SummaryDoc,
    /// The parsed trace journal, when the target traced any events.
    pub trace: Option<TraceDoc>,
}

/// Resolves `--only` names against the suite registry, preserving suite
/// order. `None` means every target.
pub fn select_targets(only: Option<&[String]>) -> Result<Vec<&'static Target>, String> {
    let Some(names) = only else {
        return Ok(suite::TARGETS.iter().collect());
    };
    for n in names {
        if suite::find(n).is_none() {
            return Err(format!("unknown suite target `{n}`"));
        }
    }
    Ok(suite::TARGETS.iter().filter(|t| names.iter().any(|n| n == t.name)).collect())
}

/// Host wall-clock spent on one suite target: a monotonic clock around
/// the target's run plus the phase breakdown its [`TargetRun`] carries.
/// Host timing never enters REPORT.md or any deterministic artifact — it
/// feeds the separate WALLCLOCK.md table (EXPERIMENTS.md "Suite
/// wall-clock").
///
/// [`TargetRun`]: hawkeye_bench::TargetRun
#[derive(Debug, Clone)]
pub struct TargetWall {
    /// Bench-target name.
    pub name: &'static str,
    /// End-to-end wall seconds for the target: scenario engine, table
    /// formatting, and every artifact dump.
    pub total_secs: f64,
    /// `(phase, seconds)` breakdown (`engine`, `summary_write`,
    /// `trace_write`).
    pub phases: Vec<(&'static str, f64)>,
    /// Scheduler quanta elapsed across the target's simulations.
    pub quanta_total: u64,
}

impl TargetWall {
    /// Seconds recorded against one phase (0 when absent).
    pub fn phase_secs(&self, phase: &str) -> f64 {
        self.phases.iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, s)| *s)
    }
}

/// Runs the selected targets in-process, writing `<dir>/<target>.json`,
/// `<dir>/<target>.trace.json` and, for `fleet_slo`, the telemetry
/// document `<dir>/fleet_slo.obs.json`.
/// The bench tables go to stdout exactly as the standalone binaries
/// print them, so a report run doubles as a full-suite run. Returns the
/// host wall-clock record per target (suite order) for the WALLCLOCK.md
/// table; the deterministic artifacts never see these numbers.
///
/// A target that panics does not stop the suite: the remaining targets
/// still run, and the error lists one ``target `<name>`: <message>``
/// line per failed target, in suite order.
pub fn run_suite(
    targets: &[&'static Target],
    threads: usize,
    dir: &Path,
) -> Result<Vec<TargetWall>, Vec<String>> {
    let mut walls = Vec::with_capacity(targets.len());
    let mut failed = Vec::new();
    for t in targets {
        let t0 = std::time::Instant::now();
        let run = match std::panic::catch_unwind(|| t.run(Run::new(threads))) {
            Ok(run) => run,
            Err(payload) => {
                failed.push(format!("target `{}`: {}", t.name, panic_message(payload)));
                continue;
            }
        };
        print!("{}", run.report.text());
        let writes = hawkeye_bench::write_json_in(dir, &run);
        walls.push(TargetWall {
            name: t.name,
            total_secs: t0.elapsed().as_secs_f64(),
            phases: run.phases.iter().copied().chain(writes).collect(),
            quanta_total: run.quanta_total,
        });
    }
    if failed.is_empty() {
        Ok(walls)
    } else {
        Err(failed)
    }
}

/// Renders the suite wall-clock table (WALLCLOCK.md): per-target totals,
/// the phase breakdown and scheduler quanta, slowest first, with a
/// suite-total row. Host timing lives only here — never in REPORT.md — so
/// the table can change run to run while the report stays byte-identical.
pub fn wallclock_table(walls: &[TargetWall], threads: usize) -> String {
    let mut out = String::new();
    out.push_str("# Suite wall-clock\n\n");
    out.push_str(&format!(
        "Host wall-clock per suite target on {threads} worker thread(s), \
         from a monotonic clock kept out of every deterministic artifact \
         (see EXPERIMENTS.md \"Suite wall-clock\"). Phases: `engine` is \
         the scenario-engine run, `summary` and `trace` are the artifact \
         dumps; the remainder is table formatting and load-back.\n\n",
    ));
    out.push_str(
        "| Target | total (s) | engine (s) | summary (s) | trace (s) | quanta |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );
    let mut order: Vec<&TargetWall> = walls.iter().collect();
    order.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
    for w in order {
        out.push_str(&format!(
            "| `{}` | {:.2} | {:.2} | {:.2} | {:.2} | {} |\n",
            w.name,
            w.total_secs,
            w.phase_secs("engine"),
            w.phase_secs("summary_write"),
            w.phase_secs("trace_write"),
            w.quanta_total,
        ));
    }
    let total: f64 = walls.iter().map(|w| w.total_secs).sum();
    out.push_str(&format!(
        "| **suite total** | **{:.2}** | {:.2} | {:.2} | {:.2} | {} |\n",
        total,
        walls.iter().map(|w| w.phase_secs("engine")).sum::<f64>(),
        walls.iter().map(|w| w.phase_secs("summary_write")).sum::<f64>(),
        walls.iter().map(|w| w.phase_secs("trace_write")).sum::<f64>(),
        walls.iter().map(|w| w.quanta_total).sum::<u64>(),
    ));
    out
}

/// Loads the selected targets' artifacts back from `dir` through the
/// `hawkeye-analyze` parsers. The summary is mandatory; the trace
/// journal is optional (targets that emit no events write no journal).
pub fn load(targets: &[&'static Target], dir: &Path) -> Result<Vec<TargetData>, String> {
    let mut out = Vec::new();
    for t in targets {
        let path = dir.join(format!("{}.json", t.name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (run without --no-run?)", path.display()))?;
        let summary = parse_summary(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace_path = dir.join(format!("{}.trace.json", t.name));
        let trace = match std::fs::read_to_string(&trace_path) {
            Ok(text) => {
                Some(parse_trace(&text).map_err(|e| format!("{}: {e}", trace_path.display()))?)
            }
            Err(_) => None,
        };
        out.push(TargetData { name: t.name, paper_ref: t.paper, summary, trace });
    }
    Ok(out)
}

/// Deterministic value formatting for report cells: fixed decimal count
/// by magnitude, scientific below 0.01, so the same `f64` always renders
/// the same bytes.
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// GitHub-style anchor slug for a heading ("Table 1 · fault latency" →
/// `table-1--fault-latency`), used by DESIGN.md §4 cross-links.
pub fn slug(heading: &str) -> String {
    heading
        .chars()
        .filter_map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

fn heading(s: &Section) -> String {
    format!("{} · {}", s.paper_ref, s.target)
}

/// Renders REPORT.md from the built sections. Pure function of its
/// inputs: no clocks, hostnames, thread counts, or paths — this is what
/// makes the golden-file determinism test possible.
pub fn render(sections: &[Section], slack: f64) -> String {
    let mut out = String::new();
    out.push_str("# HawkEye reproduction report\n\n");
    out.push_str(
        "Generated by `hawkeye-report` (see DESIGN.md §12) from a full \
         in-process run of the paper-experiment suite. Every section \
         below is one row of DESIGN.md §4's experiment index; each check \
         row shows the paper's published number, the reproduced value, \
         the percent delta, and the tolerance band that gates \
         `hawkeye-report --check`. Bands are calibrated against the \
         recorded reference run (the simulator is deterministic); the \
         **Δ vs paper** column is informational — footprints and times \
         are scaled by design (see EXPERIMENTS.md's reading guide).\n\n",
    );
    out.push_str(&format!("Slack factor applied to bands: {}\n\n", fmt_num(slack)));

    out.push_str("## Summary\n\n");
    out.push_str("| Section | Target | Checks | Status |\n|---|---|---|---|\n");
    let mut all_pass = true;
    for s in sections {
        let (passed, total) = s.tally(slack);
        let ok = passed == total;
        all_pass &= ok;
        out.push_str(&format!(
            "| [{}](#{}) | `{}` | {passed}/{total} | {} |\n",
            heading(s),
            slug(&heading(s)),
            s.target,
            if ok { "pass" } else { "**FAIL**" },
        ));
    }
    out.push_str(&format!(
        "\nOverall: **{}**\n",
        if all_pass { "all sections within tolerance" } else { "OUT OF TOLERANCE" },
    ));

    for s in sections {
        out.push_str(&format!("\n## {}\n\n", heading(s)));
        if !s.title.is_empty() {
            out.push_str(&format!("*{}*\n\n", s.title));
        }
        for w in &s.warnings {
            out.push_str(&format!("> ⚠️ **WARNING:** {w}\n\n"));
        }
        if !s.checks.is_empty() {
            out.push_str(
                "| Metric | Paper | Repro | Δ vs paper | Band | Status |\n\
                 |---|---:|---:|---:|---|---|\n",
            );
            for c in &s.checks {
                let paper = c.paper.map_or("—".to_string(), fmt_num);
                let measured = c.measured.map_or("missing".to_string(), fmt_num);
                let delta = c.delta_pct().map_or("—".to_string(), |d| format!("{d:+.1}%"));
                let band = c.band.widen(slack);
                let status = if c.passes(slack) { "pass" } else { "**FAIL**" };
                out.push_str(&format!(
                    "| {} | {paper} | {measured} | {delta} | [{}, {}] | {status} |\n",
                    c.metric,
                    fmt_num(band.lo),
                    fmt_num(band.hi),
                ));
            }
        }
        for f in &s.figures {
            out.push_str(&format!("\n{}\n\n```text\n{}```\n", f.caption, f.body));
        }
        for n in &s.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
    }
    out
}

/// Checks whose reproduced value is missing entirely, as `target:
/// metric` lines. A `measured: None` check means an expected key was
/// absent (or renamed) in the summary the section builder read — a
/// pipeline defect, not an out-of-tolerance value. It must fail loudly
/// (exit code 4) even without `--check`: zero-filling or skipping such
/// keys would let a renamed counter sail through as a plausible 0.
pub fn missing_metrics(sections: &[Section]) -> Vec<String> {
    let mut out = Vec::new();
    for s in sections {
        let missing: Vec<&str> =
            s.checks.iter().filter(|c| c.measured.is_none()).map(|c| c.metric.as_str()).collect();
        if !missing.is_empty() {
            out.push(format!(
                "{}: {} expected metric(s) missing from the summary: {}",
                s.target,
                missing.len(),
                missing.join("; "),
            ));
        }
    }
    out
}

/// All failing checks at a given slack, as `target: metric` lines for
/// `--check` stderr output.
pub fn failures(sections: &[Section], slack: f64) -> Vec<String> {
    let mut out = Vec::new();
    for s in sections {
        for c in &s.checks {
            if !c.passes(slack) {
                let band = c.band.widen(slack);
                out.push(format!(
                    "{}: {}: {} outside [{}, {}]",
                    s.target,
                    c.metric,
                    c.measured.map_or("missing".to_string(), fmt_num),
                    fmt_num(band.lo),
                    fmt_num(band.hi),
                ));
            }
        }
    }
    out
}

// ---- perf-trajectory ledger ---------------------------------------------

use hawkeye_obs::{LedgerRun, LedgerTarget, LEDGER_SCHEMA_VERSION};

/// Builds one perf-trajectory ledger entry ([`LedgerRun`]) from this
/// run's wall records and evaluated sections. Gated fields (quanta,
/// check tally) are deterministic; the wall-clock total is a quarantined
/// advisory column, mirroring WALLCLOCK.md.
pub fn ledger_entry(run: u64, walls: &[TargetWall], sections: &[Section], slack: f64) -> LedgerRun {
    let (mut passed, mut total) = (0u64, 0u64);
    for s in sections {
        let (p, t) = s.tally(slack);
        passed += p as u64;
        total += t as u64;
    }
    let targets = walls
        .iter()
        .map(|w| LedgerTarget { name: w.name.to_string(), quanta_total: w.quanta_total })
        .collect();
    LedgerRun {
        schema_version: LEDGER_SCHEMA_VERSION,
        run,
        checks_passed: passed,
        checks_total: total,
        targets,
        wall_total_secs: walls.iter().map(|w| w.total_secs).sum(),
    }
}

/// The run number embedded in a `BENCH_<n>.json` file name, if it is one.
fn ledger_run_number(file_name: &str) -> Option<u64> {
    file_name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()
}

/// The next free run number in a ledger directory: one past the highest
/// existing `BENCH_<n>.json` (1 on an empty or absent directory).
pub fn next_run_number(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 1 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| ledger_run_number(&e.file_name().to_string_lossy()))
        .max()
        .map_or(1, |n| n + 1)
}

/// Loads every `BENCH_<n>.json` in a ledger directory, sorted by run
/// number. A malformed entry is an error (the gate must not silently
/// skip a corrupt baseline); an absent directory is an empty ledger.
pub fn load_ledger(dir: &Path) -> Result<Vec<LedgerRun>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut runs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if ledger_run_number(&name).is_none() {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = LedgerRun::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.push(run);
    }
    runs.sort_by_key(|r| r.run);
    Ok(runs)
}

/// The default output directory: `<cargo target dir>/report`.
pub fn default_report_dir() -> PathBuf {
    std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"))
        .join("report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_widen_scales_half_width_around_center() {
        let b = Band::new(8.0, 12.0).widen(0.5);
        assert_eq!((b.lo, b.hi), (7.0, 13.0));
        let exact = Band::exact(15.0).widen(10.0);
        assert_eq!((exact.lo, exact.hi), (15.0, 15.0), "exact gates don't loosen");
        assert!(Band::around(100.0, 0.1).contains(90.0));
        assert!(!Band::around(100.0, 0.1).contains(89.9));
    }

    #[test]
    fn check_delta_and_gate_are_independent() {
        let c = Check::new("m", Some(10.0), Some(15.0), Band::around(15.0, 0.1));
        assert_eq!(c.delta_pct(), Some(50.0), "delta vs paper");
        assert!(c.passes(0.0), "gate is on the band, not the delta");
        let missing = Check::new("m", Some(10.0), None, Band::around(15.0, 0.1));
        assert!(!missing.passes(0.0), "missing metric always fails");
        assert_eq!(missing.delta_pct(), None);
    }

    #[test]
    fn fmt_num_is_magnitude_banded() {
        assert_eq!(fmt_num(409600.0), "409600");
        assert_eq!(fmt_num(131.4), "131.4");
        assert_eq!(fmt_num(3.275), "3.27");
        assert_eq!(fmt_num(0.271), "0.271");
        assert_eq!(fmt_num(0.0025), "2.50e-3");
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(-5.5), "-5.50");
    }

    #[test]
    fn slug_matches_github_style() {
        assert_eq!(slug("Table 1 · table1_fault_latency"), "table-1--table1_fault_latency");
    }

    /// A scratch dir under the target dir, unique per test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hawkeye-report-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn missing_metrics_lists_offending_keys_per_target() {
        let sections = vec![
            Section {
                target: "a",
                paper_ref: "Table 1",
                title: String::new(),
                checks: vec![
                    Check::new("present", None, Some(1.0), Band::exact(1.0)),
                    Check::new("gone (×)", None, None, Band::exact(1.0)),
                    Check::new("also gone", None, None, Band::exact(1.0)),
                ],
                figures: Vec::new(),
                notes: Vec::new(),
                warnings: Vec::new(),
            },
            Section {
                target: "b",
                paper_ref: "Fig 1",
                title: String::new(),
                checks: vec![Check::new("fine", None, Some(2.0), Band::exact(2.0))],
                figures: Vec::new(),
                notes: Vec::new(),
                warnings: Vec::new(),
            },
        ];
        let missing = missing_metrics(&sections);
        assert_eq!(missing.len(), 1, "only the broken target is listed");
        assert!(missing[0].starts_with("a: 2 expected metric(s)"), "{}", missing[0]);
        assert!(missing[0].contains("gone (×); also gone"), "{}", missing[0]);
    }

    #[test]
    fn ledger_entry_tallies_checks_quanta_and_wall_time() {
        let walls = vec![
            TargetWall { name: "a", total_secs: 1.5, phases: Vec::new(), quanta_total: 1000 },
            TargetWall { name: "b", total_secs: 2.5, phases: Vec::new(), quanta_total: 5000 },
        ];
        let sections = vec![Section {
            target: "a",
            paper_ref: "Table 1",
            title: String::new(),
            checks: vec![
                Check::new("ok", None, Some(1.0), Band::exact(1.0)),
                Check::new("bad", None, Some(9.0), Band::exact(1.0)),
            ],
            figures: Vec::new(),
            notes: Vec::new(),
            warnings: Vec::new(),
        }];
        let entry = ledger_entry(9, &walls, &sections, 0.0);
        assert_eq!(entry.run, 9);
        assert_eq!((entry.checks_passed, entry.checks_total), (1, 2));
        assert_eq!(entry.quanta_total(), 6000);
        assert_eq!(entry.wall_total_secs, 4.0);
    }

    fn first(_: &mut Run) -> hawkeye_bench::Report {
        hawkeye_bench::Report::new("first", "First", vec![])
    }

    fn broken(_: &mut Run) -> hawkeye_bench::Report {
        panic!("injected failure")
    }

    fn last(_: &mut Run) -> hawkeye_bench::Report {
        hawkeye_bench::Report::new("last", "Last", vec![])
    }

    static FIRST: Target = Target { name: "first", paper: "A", build: first };
    static BROKEN: Target = Target { name: "broken", paper: "B", build: broken };
    static LAST: Target = Target { name: "last", paper: "C", build: last };

    #[test]
    fn run_suite_names_a_panicking_target_and_runs_the_rest() {
        let dir = scratch("run-suite");
        let err = run_suite(&[&FIRST, &BROKEN, &LAST], 1, &dir)
            .expect_err("a panicking target fails the suite");
        assert_eq!(err, vec!["target `broken`: injected failure".to_string()]);
        assert!(dir.join("first.json").exists());
        assert!(dir.join("last.json").exists(), "targets after the failure still run");
        let walls = run_suite(&[&FIRST, &LAST], 1, &dir).expect("healthy suite");
        assert_eq!(walls.iter().map(|w| w.name).collect::<Vec<_>>(), ["first", "last"]);
    }

    #[test]
    fn next_run_number_scans_the_ledger_dir() {
        let dir = scratch("ledger");
        assert_eq!(next_run_number(&dir.join("absent")), 1);
        std::fs::write(dir.join("BENCH_3.json"), "{}").expect("write");
        std::fs::write(dir.join("BENCH_11.json"), "{}").expect("write");
        std::fs::write(dir.join("BENCH_x.json"), "{}").expect("write"); // ignored
        assert_eq!(next_run_number(&dir), 12);
    }

    #[test]
    fn load_ledger_sorts_by_run_and_rejects_corruption() {
        let dir = scratch("ledger-load");
        let entry = |n: u64| {
            let r = LedgerRun {
                schema_version: LEDGER_SCHEMA_VERSION,
                run: n,
                checks_passed: 1,
                checks_total: 1,
                targets: Vec::new(),
                wall_total_secs: 0.0,
            };
            r.to_json().to_string()
        };
        std::fs::write(dir.join("BENCH_10.json"), entry(10)).expect("write");
        std::fs::write(dir.join("BENCH_2.json"), entry(2)).expect("write");
        std::fs::write(dir.join("notes.txt"), "ignored").expect("write");
        let runs = load_ledger(&dir).expect("load");
        assert_eq!(runs.iter().map(|r| r.run).collect::<Vec<_>>(), vec![2, 10]);
        std::fs::write(dir.join("BENCH_3.json"), "{broken").expect("write");
        let err = load_ledger(&dir).expect_err("corrupt entry must error");
        assert!(err.contains("BENCH_3.json"), "{err}");
    }

    #[test]
    fn render_marks_failures_and_is_deterministic() {
        let sections = vec![Section {
            target: "t",
            paper_ref: "Table 1",
            title: "demo".into(),
            checks: vec![
                Check::new("good", Some(1.0), Some(1.1), Band::around(1.1, 0.05)),
                Check::new("bad", Some(1.0), Some(9.9), Band::around(1.1, 0.05)),
            ],
            figures: vec![Figure { caption: "fig".into(), body: "x\n".into() }],
            notes: vec!["note".into()],
            warnings: vec!["drops happened".into()],
        }];
        let r1 = render(&sections, 0.0);
        assert_eq!(r1, render(&sections, 0.0));
        assert!(r1.contains("**FAIL**"));
        assert!(r1.contains("Δ vs paper"));
        assert!(r1.contains("```text"));
        assert_eq!(failures(&sections, 0.0).len(), 1);
        assert!(failures(&sections, 0.0)[0].contains("bad"));
    }
}
