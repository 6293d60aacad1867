//! The scenario engine: every bench target is a list of independent
//! [`Scenario`]s fanned out across cores and reassembled in submission
//! order.
//!
//! A scenario is a name plus a `Send` closure that builds and runs one
//! simulation (or any other self-contained computation) and returns its
//! result — usually a [`Row`]. [`Run::scenarios`] executes the whole list
//! on the in-tree worker pool ([`hawkeye_fleet::pool`]) and returns
//! results in submission order, so table output is byte-identical at any
//! worker count. The [`Run`] also keeps everything the scenarios produced
//! beside their results — journals, cycle-attribution registries, the
//! telemetry document, host-time phases — and hands it back as a
//! [`TargetRun`] value: no artifact ever travels through process-global
//! state. [`Report`] is the shared formatting tail: it renders the text
//! table every target used to hand-roll and the machine-readable JSON
//! summary [`write_json_in`] writes to `<dir>/<target>.json`.

use crate::RunOutcome;
use hawkeye_fleet::pool::{self, Job};
use hawkeye_kernel::Simulator;
use hawkeye_metrics::json::Json;
use hawkeye_metrics::{registry, Registry, Subsystem};
use hawkeye_trace::{scope, trace_doc_string, Journal};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One independent unit of a bench target: a named closure producing a
/// result on a worker thread.
///
/// # Examples
///
/// Results come back in submission order regardless of worker count,
/// which is the whole byte-determinism story:
///
/// ```
/// use hawkeye_bench::{Run, Scenario};
///
/// let scenarios: Vec<Scenario<u64>> =
///     (0..4u64).map(|i| Scenario::new(format!("square {i}"), move || i * i)).collect();
/// assert_eq!(Run::new(2).scenarios(scenarios), vec![0, 1, 4, 9]);
/// ```
pub struct Scenario<T> {
    name: String,
    job: Job<T>,
}

impl<T: Send> Scenario<T> {
    /// A scenario from any `Send` closure.
    pub fn new(name: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        Scenario {
            name: name.into(),
            job: Box::new(job),
        }
    }

    /// The standard single-simulation shape: `build` returns a fully-built
    /// [`Simulator`] with the measured workload spawned (its pid); the
    /// engine runs it to completion and hands the [`RunOutcome`] to
    /// `format`.
    pub fn sim(
        name: impl Into<String>,
        build: impl FnOnce() -> (Simulator, u32) + Send + 'static,
        format: impl FnOnce(RunOutcome) -> T + Send + 'static,
    ) -> Self {
        Scenario::new(name, move || {
            let (mut sim, pid) = build();
            sim.run();
            format(RunOutcome { sim, pid })
        })
    }

    /// The scenario's name (diagnostics; results are matched by order,
    /// not name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the scenario inline on the current thread.
    pub fn run(self) -> T {
        (self.job)()
    }
}

/// One target's run: how to run its scenarios, and everything they have
/// produced so far. Targets receive a `&mut Run`; their artifacts
/// accumulate here in submission order, so the output is deterministic
/// at any worker count (same rule as table rows).
pub struct Run {
    /// Worker threads for [`Run::scenarios`].
    pub threads: usize,
    /// Named event journals: one per scenario, plus any a target
    /// collects itself (the fleet's sampled host journals).
    pub journals: Vec<(String, Journal)>,
    /// Per-scenario cycle-attribution registries; they become the
    /// summary's `cycles` section.
    pub registries: Vec<(String, Registry)>,
    /// The serialized telemetry document (one JSON object, no trailing
    /// newline), when the target produced one.
    pub obs_doc: Option<String>,
    /// Host wall-clock per phase, in first-recorded order; repeated
    /// charges to one phase accumulate. Never enters a deterministic
    /// artifact.
    pub phases: Vec<(&'static str, f64)>,
}

impl Run {
    /// An empty run on `threads` workers.
    pub fn new(threads: usize) -> Run {
        Run {
            threads,
            journals: Vec::new(),
            registries: Vec::new(),
            obs_doc: None,
            phases: Vec::new(),
        }
    }

    /// Charges `secs` of host wall-clock to `phase`.
    pub fn phase(&mut self, phase: &'static str, secs: f64) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += secs,
            None => self.phases.push((phase, secs)),
        }
    }

    /// Runs scenarios on [`Run::threads`] workers; results come back in
    /// submission order. Each scenario's journal and registry are
    /// appended to this run. Wall-clock goes to stderr so
    /// stdout stays byte-identical across worker counts.
    ///
    /// # Panics
    ///
    /// When a scenario panics, its siblings still finish; then this
    /// panics with ``scenario `<name>` panicked: <message>`` naming the
    /// first failed scenario in submission order.
    pub fn scenarios<T: Send + 'static>(&mut self, scenarios: Vec<Scenario<T>>) -> Vec<T> {
        let n = scenarios.len();
        let t0 = Instant::now();
        // Each job runs start-to-finish on one worker thread, so
        // thread-local scopes around it capture exactly that scenario's
        // events and charges; `run_ordered` brings everything back in
        // submission order with the results. A panic is caught here, per
        // job, so it cannot poison the pool's slots or lose the siblings'
        // results.
        type Instrumented<T> = (Result<T, String>, Option<Journal>, Option<Registry>);
        let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        let jobs: Vec<Job<Instrumented<T>>> = scenarios
            .into_iter()
            .map(|s| {
                let job = s.job;
                Box::new(move || {
                    registry::scope::begin();
                    scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
                    let result = panic::catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
                    let journal = scope::end();
                    let mut reg = registry::scope::end();
                    // Ring-buffer overflow must not stay silent: surface the
                    // drop count as a registry counter (machine 0 = the
                    // scenario's first machine) so it reaches the summary's
                    // `cycles` section and REPORT.md can warn loudly.
                    if let (Some(j), Some(r)) = (journal.as_ref(), reg.as_mut()) {
                        if j.dropped > 0 {
                            r.machine_entry(0).add("trace.dropped_events", j.dropped);
                        }
                    }
                    (result, journal, reg)
                }) as Job<Instrumented<T>>
            })
            .collect();
        let mut results = Vec::with_capacity(n);
        let mut failed = None;
        for (name, (result, journal, reg)) in
            names.into_iter().zip(pool::run_ordered(jobs, self.threads))
        {
            match result {
                Ok(r) => results.push(r),
                Err(msg) => {
                    failed.get_or_insert(format!("scenario `{name}` panicked: {msg}"));
                }
            }
            if let Some(j) = journal {
                self.journals.push((name.clone(), j));
            }
            if let Some(r) = reg {
                self.registries.push((name, r));
            }
        }
        if let Some(msg) = failed {
            panic!("{msg}");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        self.phase("engine", elapsed);
        eprintln!(
            "[scenario-engine] {n} scenario(s) on {} worker(s) in {elapsed:.2}s",
            self.threads.min(n.max(1)),
        );
        results
    }

    /// Wraps a finished report with everything this run collected.
    /// Quanta stay zero; [`crate::suite::Target::run`] measures them.
    pub fn finish(self, report: Report) -> TargetRun {
        TargetRun {
            report,
            journals: self.journals,
            registries: self.registries,
            obs_doc: self.obs_doc,
            phases: self.phases,
            quanta_total: 0,
        }
    }
}

/// The text of a caught panic payload (`panic!` with a literal or a
/// formatted message); anything else is reported as opaque.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Everything one target's run produced: the report plus its artifacts
/// and the host-side counters WALLCLOCK.md and the perf ledger read.
pub struct TargetRun {
    /// The target's table and summary.
    pub report: Report,
    /// Named event journals, in submission order.
    pub journals: Vec<(String, Journal)>,
    /// Per-scenario cycle-attribution registries, in submission order.
    pub registries: Vec<(String, Registry)>,
    /// The serialized telemetry document, if any.
    pub obs_doc: Option<String>,
    /// Host wall-clock per phase (`engine`, ...).
    pub phases: Vec<(&'static str, f64)>,
    /// Scheduler quanta elapsed across the target's simulations.
    pub quanta_total: u64,
}

impl TargetRun {
    /// Prints the report's text to stdout and writes every artifact
    /// under [`results_dir`].
    pub fn print_and_write(&self) {
        print!("{}", self.report.text());
        write_json_in(&results_dir(), self);
    }
}

/// The `cycles` section of a JSON summary: for every scenario, each
/// machine's exact cycle attribution — `CPU_CLK_UNHALTED`, the residue it
/// leaves after subtracting the CPU ledger (`null` when the machine never
/// recorded unhalted cycles, e.g. the virtualization host), both ledgers
/// by subsystem, plus non-cycle counters, gauges, and histogram
/// percentiles. Deterministic: registries arrive in submission order and
/// every map inside them iterates in key order.
pub fn cycles_json(snapshots: &[(String, Registry)]) -> Json {
    let scenarios = snapshots
        .iter()
        .map(|(name, reg)| {
            let machines = reg
                .machines()
                .map(|(id, m)| {
                    let ledger = |keyed: &dyn Fn(Subsystem) -> u64| {
                        Json::obj(
                            Subsystem::ALL
                                .iter()
                                .map(|s| (s.name(), Json::int(keyed(*s))))
                                .collect(),
                        )
                    };
                    let counters: Vec<(&str, Json)> = m
                        .counters()
                        .filter(|(k, _)| !k.starts_with("cycles."))
                        .map(|(k, v)| (k, Json::int(v)))
                        .collect();
                    let gauges: Vec<(&str, Json)> =
                        m.gauges().map(|(k, v)| (k, Json::num(v))).collect();
                    let hists: Vec<(&str, Json)> = m
                        .hists()
                        .map(|(k, h)| {
                            (
                                k,
                                Json::obj(vec![
                                    ("count", Json::int(h.count())),
                                    ("mean", Json::int(h.mean())),
                                    ("p50", Json::int(h.percentile(50.0))),
                                    ("p90", Json::int(h.percentile(90.0))),
                                    ("p99", Json::int(h.percentile(99.0))),
                                    ("max", Json::int(h.max())),
                                ]),
                            )
                        })
                        .collect();
                    let residue = if m.unhalted() == 0 {
                        Json::Null
                    } else {
                        Json::num(m.residue() as f64)
                    };
                    Json::obj(vec![
                        ("machine", Json::int(id as u64)),
                        ("unhalted", Json::int(m.unhalted())),
                        ("residue", residue),
                        ("cpu", ledger(&|s| m.cpu_cycles(s))),
                        ("daemon", ledger(&|s| m.daemon_cycles(s))),
                        (
                            "counters",
                            Json::Obj(
                                counters
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), v))
                                    .collect(),
                            ),
                        ),
                        (
                            "gauges",
                            Json::Obj(
                                gauges
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), v))
                                    .collect(),
                            ),
                        ),
                        (
                            "hist",
                            Json::Obj(hists.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
                        ),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("scenario", Json::str(name.clone())),
                ("machines", Json::Arr(machines)),
            ])
        })
        .collect();
    Json::Arr(scenarios)
}

/// One table row produced by a scenario: formatted cells, headline
/// numbers for the JSON summary, and optional free-text blocks (time
/// series printouts) emitted before the table.
pub struct Row {
    /// Table cells, in column order.
    pub cells: Vec<String>,
    /// Headline numbers for `target/bench-results/<target>.json`.
    pub json: Json,
    /// Extra text printed (in row order) above the table.
    pub lines: Vec<String>,
}

impl Row {
    /// A row with cells only.
    pub fn new(cells: Vec<String>) -> Self {
        Row {
            cells,
            json: Json::obj(vec![]),
            lines: Vec::new(),
        }
    }

    /// Attaches the JSON summary object.
    pub fn with_json(mut self, json: Json) -> Self {
        self.json = json;
        self
    }

    /// Appends a free-text block.
    pub fn line(mut self, line: impl Into<String>) -> Self {
        self.lines.push(line.into());
        self
    }
}

/// The shared formatting tail of a bench target: collects [`Row`]s,
/// prints free-text blocks + the aligned table + footnotes, and writes
/// the JSON summary.
pub struct Report {
    target: &'static str,
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Row>,
    footers: Vec<String>,
}

impl Report {
    /// A report for bench target `target` (the JSON file stem). Empty
    /// `columns` suppresses the table (series-only figures).
    pub fn new(target: &'static str, title: impl Into<String>, columns: Vec<&'static str>) -> Self {
        Report {
            target,
            title: title.into(),
            columns,
            rows: Vec::new(),
            footers: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn add(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends rows in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.rows.extend(rows);
    }

    /// Appends a footnote line printed after the table (paper context).
    pub fn footer(&mut self, line: impl Into<String>) {
        self.footers.push(line.into());
    }

    /// The collected rows, in insertion order (tests assert on cells).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders the full stdout text: free-text blocks, table, footers.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for block in &row.lines {
                out.push_str(block);
                if !block.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
        if !self.columns.is_empty() {
            let mut t = hawkeye_metrics::TextTable::new(self.columns.clone())
                .with_title(self.title.clone());
            for row in &self.rows {
                t.row(row.cells.clone());
            }
            out.push_str(&t.to_string());
        }
        for f in &self.footers {
            out.push_str(f);
            out.push('\n');
        }
        out
    }

    /// The machine-readable summary: target, title, and each row's
    /// headline numbers in row order.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("target", Json::str(self.target)),
            ("title", Json::str(self.title.clone())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| r.json.clone()).collect()),
            ),
        ])
    }

    /// The bench-target name (the artifact file stem).
    pub fn target(&self) -> &'static str {
        self.target
    }
}

/// Writes one target's artifacts from its [`TargetRun`]:
/// `<dir>/<target>.json` (the summary, plus a `cycles` section when any
/// scenario returned a registry), `<dir>/<target>.trace.json` when it
/// has journals, and `<dir>/<target>.obs.json` when it has a telemetry
/// document. Outcomes go to stderr only — a read-only checkout still
/// gets its tables. Returns the host seconds spent per write phase
/// (`summary_write`, `trace_write`).
pub fn write_json_in(dir: &Path, run: &TargetRun) -> Vec<(&'static str, f64)> {
    let target = run.report.target();
    let mut phases = Vec::new();
    let t0 = Instant::now();
    let mut summary = run.report.json();
    if !run.registries.is_empty() {
        summary.push("cycles", cycles_json(&run.registries));
    }
    let mut doc = String::new();
    summary.write_into(&mut doc);
    doc.push('\n');
    report_write(write_artifact(dir, target, &doc), target);
    phases.push(("summary_write", t0.elapsed().as_secs_f64()));
    if !run.journals.is_empty() {
        let t0 = Instant::now();
        let stem = format!("{target}.trace");
        let mut doc = trace_doc_string(target, &run.journals);
        doc.push('\n');
        report_write(write_artifact(dir, &stem, &doc), &stem);
        phases.push(("trace_write", t0.elapsed().as_secs_f64()));
    }
    if let Some(doc) = &run.obs_doc {
        let stem = format!("{target}.obs");
        report_write(write_artifact(dir, &stem, &format!("{doc}\n")), &stem);
    }
    phases
}

/// Directory bench results are written to:
/// `HAWKEYE_BENCH_RESULTS` override, else `CARGO_TARGET_DIR`, else the
/// workspace `target/`, each with a `bench-results/` subdirectory.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HAWKEYE_BENCH_RESULTS") {
        return PathBuf::from(dir);
    }
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("bench-results")
}

/// Writes `text` to `<dir>/<stem>.json` (creating `dir`) and returns the
/// path: the one artifact-file writer.
pub fn write_artifact(dir: &Path, stem: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Reports one artifact write on stderr, keeping stdout deterministic.
fn report_write(result: std::io::Result<PathBuf>, stem: &str) {
    match result {
        Ok(path) => eprintln!("[scenario-engine] wrote {}", path.display()),
        Err(e) => eprintln!("[scenario-engine] could not write {stem}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use hawkeye_workloads::Spinup;

    /// Compile-time check: scenarios must be movable to workers.
    #[allow(dead_code)]
    fn assert_send<T: Send>() {}

    #[test]
    fn scenario_types_are_send() {
        assert_send::<Scenario<Row>>();
        assert_send::<Simulator>();
    }

    #[test]
    fn sim_scenarios_run_and_format() {
        let s = Scenario::sim(
            "spinup",
            || {
                let mut sim =
                    Simulator::new(PolicyKind::Linux4k.config(64), PolicyKind::Linux4k.build());
                let pid = sim.spawn(Box::new(Spinup::new("s", 512)));
                (sim, pid)
            },
            |out| out.faults(),
        );
        assert_eq!(s.name(), "spinup");
        assert_eq!(s.run(), 512);
    }

    #[test]
    fn ordered_results_match_serial_at_any_worker_count() {
        let build = || -> Vec<Scenario<u64>> {
            (0..6)
                .map(|i| {
                    Scenario::sim(
                        format!("s{i}"),
                        move || {
                            let mut sim = Simulator::new(
                                PolicyKind::Linux4k.config(64),
                                PolicyKind::Linux4k.build(),
                            );
                            let pid = sim.spawn(Box::new(Spinup::new("s", 128 * (i + 1))));
                            (sim, pid)
                        },
                        |out| out.faults(),
                    )
                })
                .collect()
        };
        let serial = Run::new(1).scenarios(build());
        let parallel = Run::new(4).scenarios(build());
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![128, 256, 384, 512, 640, 768]);
    }

    #[test]
    fn a_panicking_scenario_names_itself_and_its_siblings_finish() {
        for threads in [1, 4] {
            let finished = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let scenarios: Vec<Scenario<u64>> = (0..6u64)
                .map(|i| {
                    let finished = finished.clone();
                    Scenario::new(format!("s{i}"), move || {
                        assert!(i != 3, "injected failure {i}");
                        finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            let mut run = Run::new(threads);
            let err = panic::catch_unwind(AssertUnwindSafe(|| run.scenarios(scenarios)))
                .expect_err("the failure must reach the caller");
            assert_eq!(
                panic_message(err),
                "scenario `s3` panicked: injected failure 3",
                "threads={threads}"
            );
            assert_eq!(finished.load(std::sync::atomic::Ordering::Relaxed), 5, "threads={threads}");
            assert_eq!(run.registries.len(), 6, "threads={threads}: every scope closed");
        }
    }

    #[test]
    fn report_renders_blocks_table_and_json() {
        let mut r = Report::new("demo", "Demo", vec!["a", "b"]);
        r.add(
            Row::new(vec!["1".into(), "2".into()])
                .with_json(Json::obj(vec![("a", Json::int(1))]))
                .line("series block"),
        );
        r.footer("(note)");
        let text = r.text();
        let series = text.find("series block").unwrap();
        let table = text.find("== Demo ==").unwrap();
        let note = text.find("(note)").unwrap();
        assert!(series < table && table < note);
        assert_eq!(
            r.json().to_string(),
            r#"{"target":"demo","title":"Demo","rows":[{"a":1}]}"#
        );
    }

    #[test]
    fn empty_columns_suppress_table() {
        let mut r = Report::new("demo", "Demo", vec![]);
        r.add(Row::new(vec![]).line("only text"));
        assert_eq!(r.text(), "only text\n");
    }
}
