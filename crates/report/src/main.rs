//! CLI for [`hawkeye_report`]: run the suite, build REPORT.md, and
//! optionally gate on the tolerance bands.
//!
//! ```text
//! hawkeye-report [--check] [--no-run] [--threads N] [--slack F]
//!                [--only a,b,...] [--dir DIR]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hawkeye_report::paper;

fn usage() -> &'static str {
    "usage: hawkeye-report [--check] [--no-run] [--threads N] [--slack F]\n\
     \x20                     [--only t1,t2,...] [--dir DIR] [--trend]\n\
     \x20                     [--ledger DIR] [--counts]\n\
     \n\
     Runs the full paper-experiment suite in-process,\n\
     writes per-target summaries + trace journals under DIR, and renders\n\
     DIR/REPORT.md: every table/figure of DESIGN.md \u{a7}4 side-by-side\n\
     with the paper's number, a percent delta, and a tolerance band.\n\
     \n\
     --check       exit nonzero if any check lands outside its band\n\
     --no-run      skip the suite run; rebuild REPORT.md from artifacts\n\
     \x20             already in DIR\n\
     --threads N   worker threads for the scenario engine (default:\n\
     \x20             HAWKEYE_BENCH_THREADS or all cores); REPORT.md is\n\
     \x20             byte-identical at any value\n\
     --slack F     widen every band's half-width by F (e.g. 0.5 = 1.5x);\n\
     \x20             exact gates stay exact\n\
     --only LIST   comma-separated subset of suite targets\n\
     --dir DIR     artifact directory (default: <target>/report)\n\
     --trend       render DIR/TREND.md from the perf-trajectory ledger;\n\
     \x20             with --check, fail if a deterministic work counter\n\
     \x20             regressed vs the previous run (wall-clock is never\n\
     \x20             gated)\n\
     --ledger DIR  perf-trajectory ledger directory holding BENCH_<n>.json\n\
     \x20             entries (default: <dir>/ledger); every suite run\n\
     \x20             appends one entry\n\
     --counts      print `targets=N checks=M` (registry size and total\n\
     \x20             check rows) and exit — the docs-drift CI gate\n\
     \x20             compares these against README/EXPERIMENTS.md\n\
     \n\
     When the selection includes fleet_slo, DIR/FLEET.md (per-cohort\n\
     fleet SLO tables) is written next to REPORT.md; when it includes\n\
     adversarial, DIR/ENVELOPES.md (the failure-envelope atlas) is\n\
     written the same way, and DIR/ALERTS.md (SLO burn-rate\n\
     transitions + anomaly annotations) is rendered from the\n\
     fleet_slo.obs.json artifact.\n\
     \n\
     exit codes:\n\
     \x20  0   report written; all checks in tolerance (or no --check)\n\
     \x20  1   --check: at least one check out of tolerance, or --trend\n\
     \x20      --check: a deterministic counter regressed\n\
     \x20  2   usage error\n\
     \x20  3   pipeline error (missing or malformed artifact)\n\
     \x20  4   summary error: expected metrics missing from a summary\n\
     \x20      (renamed/absent keys; REPORT.md is still written)\n\
     \x20  5   target failure: a suite target panicked; each failed\n\
     \x20      target is named on stderr (target `<name>`: <message>),\n\
     \x20      the others still run, and no REPORT.md or ledger entry\n\
     \x20      is written\n"
}

/// The parsed command line.
struct Opts {
    check: bool,
    run: bool,
    threads: Option<usize>,
    slack: f64,
    only: Option<Vec<String>>,
    dir: Option<PathBuf>,
    trend: bool,
    ledger_dir: Option<PathBuf>,
}

/// Writes one output file, creating its directory first. The error is
/// the `could not write <path>: <cause>` message.
fn write_out(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Reports a pipeline error under `gate` and returns its exit code, 3.
fn fail(gate: &str, msg: &str) -> ExitCode {
    eprintln!("hawkeye-report: gate={gate}: {msg}");
    ExitCode::from(3)
}

fn main() -> ExitCode {
    let mut o = Opts {
        check: false,
        run: true,
        threads: None,
        slack: 0.0,
        only: None,
        dir: None,
        trend: false,
        ledger_dir: None,
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--check" => o.check = true,
            "--no-run" => o.run = false,
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--threads" => match value("--threads").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => o.threads = Some(n),
                _ => {
                    eprintln!("hawkeye-report: --threads needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--slack" => match value("--slack").map(|v| v.parse::<f64>()) {
                Ok(Ok(f)) if f >= 0.0 => o.slack = f,
                _ => {
                    eprintln!("hawkeye-report: --slack needs a non-negative number");
                    return ExitCode::from(2);
                }
            },
            "--only" => match value("--only") {
                Ok(list) => o.only = Some(list.split(',').map(|s| s.trim().to_string()).collect()),
                Err(e) => {
                    eprintln!("hawkeye-report: {e}");
                    return ExitCode::from(2);
                }
            },
            "--dir" => match value("--dir") {
                Ok(d) => o.dir = Some(PathBuf::from(d)),
                Err(e) => {
                    eprintln!("hawkeye-report: {e}");
                    return ExitCode::from(2);
                }
            },
            "--trend" => o.trend = true,
            "--counts" => {
                // Registry size and total check rows, computed from the
                // section builders alone (they register a fixed check
                // vector per target) — no suite run, no artifacts.
                let total: usize = hawkeye_bench::suite::TARGETS
                    .iter()
                    .map(|t| {
                        let d = hawkeye_report::TargetData {
                            name: t.name,
                            paper_ref: t.paper,
                            summary: hawkeye_analyze::summary::SummaryDoc {
                                target: t.name.to_string(),
                                title: String::new(),
                                rows: Vec::new(),
                                cycles: Vec::new(),
                            },
                            trace: None,
                        };
                        paper::section(&d).checks.len()
                    })
                    .sum();
                println!(
                    "targets={} checks={total}",
                    hawkeye_bench::suite::TARGETS.len()
                );
                return ExitCode::SUCCESS;
            }
            "--ledger" => match value("--ledger") {
                Ok(d) => o.ledger_dir = Some(PathBuf::from(d)),
                Err(e) => {
                    eprintln!("hawkeye-report: {e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("hawkeye-report: unknown argument `{other}`\n");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    match report(o) {
        Ok(code) | Err(code) => code,
    }
}

/// Runs the suite (unless `--no-run`) and writes every output file. An
/// `Err` is an early exit with its code.
fn report(opts: Opts) -> Result<ExitCode, ExitCode> {
    let Opts { check, run, threads, slack, only, dir, trend, ledger_dir } = opts;
    let dir = dir.unwrap_or_else(hawkeye_report::default_report_dir);
    let data_dir = dir.join("data");
    let targets = match hawkeye_report::select_targets(only.as_deref()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hawkeye-report: {e}");
            return Err(ExitCode::from(2));
        }
    };

    let ledger_dir = ledger_dir.unwrap_or_else(|| dir.join("ledger"));
    let mut walls: Vec<hawkeye_report::TargetWall> = Vec::new();
    if run {
        let threads = threads.unwrap_or_else(hawkeye_fleet::pool::worker_threads);
        eprintln!(
            "[hawkeye-report] running {} suite target(s) on {threads} worker(s)",
            targets.len()
        );
        walls = match hawkeye_report::run_suite(&targets, threads, &data_dir) {
            Ok(walls) => walls,
            Err(failed) => {
                for f in &failed {
                    eprintln!("hawkeye-report: gate=run: {f}");
                }
                eprintln!(
                    "hawkeye-report: {} suite target(s) failed; no REPORT.md or ledger entry written",
                    failed.len()
                );
                return Err(ExitCode::from(5));
            }
        };
        // Host timing is advisory: a failed write is logged, not fatal.
        let wall_path = dir.join("WALLCLOCK.md");
        match write_out(&wall_path, &hawkeye_report::wallclock_table(&walls, threads)) {
            Ok(()) => eprintln!("[hawkeye-report] wrote {}", wall_path.display()),
            Err(e) => eprintln!("[hawkeye-report] {e}"),
        }
        let total: f64 = walls.iter().map(|w| w.total_secs).sum();
        eprintln!("[hawkeye-report] suite wall-clock: {total:.2}s — see WALLCLOCK.md");
    }

    let data = hawkeye_report::load(&targets, &data_dir).map_err(|e| fail("load", &e))?;
    let sections = paper::sections(&data);
    let report = hawkeye_report::render(&sections, slack);

    let out_path = dir.join("REPORT.md");
    write_out(&out_path, &report).map_err(|e| fail("load", &e))?;
    eprintln!("[hawkeye-report] wrote {}", out_path.display());

    // FLEET.md: the per-cohort SLO tables, whenever the fleet target is
    // in the selection (same deterministic-bytes rule as REPORT.md).
    for d in &data {
        if let Some(md) = hawkeye_analyze::fleet::fleet_md(&d.summary) {
            let fleet_path = dir.join("FLEET.md");
            write_out(&fleet_path, &md).map_err(|e| fail("load", &e))?;
            eprintln!("[hawkeye-report] wrote {}", fleet_path.display());
        }
    }

    // ENVELOPES.md: the failure-envelope atlas, whenever the adversarial
    // target is in the selection (same deterministic-bytes rule).
    for d in &data {
        if let Some(md) = hawkeye_analyze::envelope::envelopes_md(&d.summary, d.trace.as_ref()) {
            let env_path = dir.join("ENVELOPES.md");
            write_out(&env_path, &md).map_err(|e| fail("load", &e))?;
            eprintln!("[hawkeye-report] wrote {}", env_path.display());
        }
    }

    // ALERTS.md: SLO burn-rate transitions + anomaly annotations,
    // whenever a fleet_slo run left the obs document behind. A
    // present-but-unreadable document is a pipeline error, not a skip.
    let obs_path = data_dir.join("fleet_slo.obs.json");
    match std::fs::read_to_string(&obs_path) {
        Ok(text) => {
            let obs_doc = hawkeye_obs::ObsDoc::parse(&text)
                .map_err(|e| fail("load", &format!("{}: {e}", obs_path.display())))?;
            let alerts_path = dir.join("ALERTS.md");
            write_out(&alerts_path, &hawkeye_obs::alerts_md(&obs_doc))
                .map_err(|e| fail("load", &e))?;
            eprintln!("[hawkeye-report] wrote {}", alerts_path.display());
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(fail("load", &format!("{}: {e}", obs_path.display()))),
    }

    // Perf-trajectory ledger: every real suite run appends one
    // schema-versioned BENCH_<n>.json entry (--no-run rebuilds never do —
    // they measured nothing).
    if run {
        let n = hawkeye_report::next_run_number(&ledger_dir);
        let entry = hawkeye_report::ledger_entry(n, &walls, &sections, slack);
        let doc = entry.to_json().to_string() + "\n";
        let entry_path = ledger_dir.join(format!("BENCH_{n}.json"));
        write_out(&entry_path, &doc).map_err(|e| fail("load", &e))?;
        eprintln!("[hawkeye-report] appended {}", entry_path.display());
    }

    // TREND.md + the regression gate on deterministic work counters.
    let mut trend_regressions: Vec<String> = Vec::new();
    if trend {
        let runs = hawkeye_report::load_ledger(&ledger_dir).map_err(|e| fail("trend", &e))?;
        let trend_path = dir.join("TREND.md");
        write_out(&trend_path, &hawkeye_obs::trend_md(&runs)).map_err(|e| fail("trend", &e))?;
        eprintln!(
            "[hawkeye-report] wrote {} ({} run(s))",
            trend_path.display(),
            runs.len()
        );
        if runs.len() >= 2 {
            trend_regressions =
                hawkeye_obs::regressions(&runs[runs.len() - 2], &runs[runs.len() - 1]);
        }
    }

    // Missing expected metrics are a pipeline defect, not a tolerance
    // miss: fail loudly (exit 4) even without --check, after writing the
    // report so the full context is on disk.
    let missing = hawkeye_report::missing_metrics(&sections);
    if !missing.is_empty() {
        for m in &missing {
            eprintln!("hawkeye-report: gate=summary: {m}");
        }
        eprintln!(
            "hawkeye-report: {} target(s) with missing summary metrics — see {}",
            missing.len(),
            out_path.display()
        );
        return Err(ExitCode::from(4));
    }

    if check {
        let failures = hawkeye_report::failures(&sections, slack);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("hawkeye-report: gate=tolerance: {f}");
            }
            eprintln!(
                "hawkeye-report: {} check(s) out of tolerance — see {}",
                failures.len(),
                out_path.display()
            );
            return Err(ExitCode::FAILURE);
        }
        let total: usize = sections.iter().map(|s| s.checks.len()).sum();
        eprintln!("hawkeye-report: all {total} check(s) within tolerance");
        if !trend_regressions.is_empty() {
            for r in &trend_regressions {
                eprintln!("hawkeye-report: gate=trend: {r}");
            }
            eprintln!(
                "hawkeye-report: {} perf-trajectory regression(s) — see {}",
                trend_regressions.len(),
                dir.join("TREND.md").display()
            );
            return Err(ExitCode::FAILURE);
        }
        if trend {
            eprintln!("hawkeye-report: perf-trajectory gate clean");
        }
    }
    Ok(ExitCode::SUCCESS)
}
