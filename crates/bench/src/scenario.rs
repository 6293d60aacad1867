//! The scenario engine: every bench target is a list of independent
//! [`Scenario`]s fanned out across cores and reassembled in submission
//! order.
//!
//! A scenario is a name plus a `Send` closure that builds and runs one
//! simulation (or any other self-contained computation) and returns its
//! result — usually a [`Row`]. [`run_scenarios`] executes the whole list
//! on the in-tree worker pool ([`hawkeye_fleet::pool`]) and returns
//! results in submission order, so table output is byte-identical at any
//! worker count. [`Report`] is the shared formatting tail: it prints the text
//! table every target used to hand-roll and writes the machine-readable
//! JSON summary to `target/bench-results/<target>.json`.

use crate::json::{self, Json};
use crate::RunOutcome;
use hawkeye_fleet::pool::{self, Job};
use hawkeye_kernel::Simulator;
use hawkeye_metrics::{registry, Registry, Subsystem};
use hawkeye_trace::{scope, Journal};
use std::sync::Mutex;
use std::time::Instant;

/// Per-scenario journals collected by [`run_scenarios_with`] when
/// `HAWKEYE_TRACE` is set (and by [`queue_trace_journals`] for targets
/// that collect journals themselves, like `fleet_slo`), drained by
/// [`write_json`] into `target/bench-results/<target>.trace.json`.
/// Appended on the main thread in submission order, so trace output is
/// deterministic at any worker count (same rule as table rows).
static TRACE_JOURNALS: Mutex<Vec<(String, Journal)>> = Mutex::new(Vec::new());

/// Per-scenario cycle-attribution registries, collected unconditionally
/// (the registry's disabled-path guarantee means it cannot perturb the
/// simulation) and drained by [`write_json`] into the summary's `cycles`
/// section. Same submission-order rule as [`TRACE_JOURNALS`].
static METRIC_SNAPSHOTS: Mutex<Vec<(String, Registry)>> = Mutex::new(Vec::new());

/// Serialized telemetry documents queued by obs-enabled targets
/// (`fleet_slo` evaluates its SLO rules and queues the result here),
/// drained by [`write_json`] into `<dir>/<target>.obs.json`. At most one
/// document is expected per target; the last queued wins.
static OBS_DOCS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// One independent unit of a bench target: a named closure producing a
/// result on a worker thread.
///
/// # Examples
///
/// Results come back in submission order regardless of worker count,
/// which is the whole byte-determinism story:
///
/// ```
/// use hawkeye_bench::{run_scenarios_with, Scenario};
///
/// let scenarios: Vec<Scenario<u64>> =
///     (0..4u64).map(|i| Scenario::new(format!("square {i}"), move || i * i)).collect();
/// assert_eq!(run_scenarios_with(scenarios, 2), vec![0, 1, 4, 9]);
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

/// Runs scenarios on [`pool::worker_threads`] workers; results come back
/// in submission order.
pub fn run_scenarios<T: Send + 'static>(scenarios: Vec<Scenario<T>>) -> Vec<T> {
    run_scenarios_with(scenarios, pool::worker_threads())
}

/// Runs scenarios on an explicit worker count (the determinism test pins
/// 1 and 8 without touching the process environment). Wall-clock goes to
/// stderr so stdout stays byte-identical across worker counts.
///
/// When `HAWKEYE_TRACE` is set, each scenario additionally records an
/// event journal, queued for [`write_json`] to dump alongside the summary.
pub fn run_scenarios_with<T: Send + 'static>(
    scenarios: Vec<Scenario<T>>,
    threads: usize,
) -> Vec<T> {
    let (results, journals, registries) =
        run_scenarios_inner(scenarios, threads, hawkeye_trace::env_enabled());
    if !journals.is_empty() {
        if let Ok(mut q) = TRACE_JOURNALS.lock() {
            q.extend(journals);
        }
    }
    if !registries.is_empty() {
        if let Ok(mut q) = METRIC_SNAPSHOTS.lock() {
            q.extend(registries);
        }
    }
    results
}

/// Results plus the per-scenario artifacts captured alongside them: the
/// event journals (named, in submission order, when tracing) and the
/// cycle-attribution registries.
pub type Captured<T> = (Vec<T>, Vec<(String, Journal)>, Vec<(String, Registry)>);

/// Runs scenarios with tracing forced on (regardless of `HAWKEYE_TRACE`)
/// and returns the per-scenario journals and cycle-attribution registries
/// directly instead of queueing them for the JSON dump. Used by tests that
/// assert on trace or registry contents.
pub fn run_scenarios_capturing<T: Send + 'static>(
    scenarios: Vec<Scenario<T>>,
    threads: usize,
) -> Captured<T> {
    run_scenarios_inner(scenarios, threads, true)
}

/// Queues named journals for the next [`write_json`] to dump into the
/// target's `.trace.json` — the path the fleet orchestrator uses: its
/// hosts trace into their own detached buffers (not the engine's
/// thread-local scope), so the `fleet_slo` target hands the sampled host
/// journals over explicitly. Order is preserved; callers pass journals
/// in a deterministic order to keep the artifact byte-stable.
pub fn queue_trace_journals(journals: Vec<(String, Journal)>) {
    if journals.is_empty() {
        return;
    }
    if let Ok(mut q) = TRACE_JOURNALS.lock() {
        q.extend(journals);
    }
}

/// Queues a serialized telemetry document (the `<target>.obs.json`
/// contents) for the next [`write_json`] to dump. Obs-enabled targets
/// call this after evaluating their SLO rules.
pub fn queue_obs_doc(doc: String) {
    if let Ok(mut q) = OBS_DOCS.lock() {
        q.push(doc);
    }
}

/// Drains the telemetry documents queued by [`queue_obs_doc`] since the
/// last drain ([`write_json`] calls this; tests may too).
pub fn take_queued_obs_docs() -> Vec<String> {
    match OBS_DOCS.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(_) => Vec::new(),
    }
}

/// Drains the cycle-attribution registries queued by [`run_scenarios_with`]
/// since the last drain ([`write_json`] calls this; tests may too).
pub fn take_metric_snapshots() -> Vec<(String, Registry)> {
    match METRIC_SNAPSHOTS.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(_) => Vec::new(),
    }
}

/// Drains the journals queued by traced runs or
/// [`queue_trace_journals`] since the last drain ([`write_json`] calls
/// this; tests may too).
pub fn take_queued_trace_journals() -> Vec<(String, Journal)> {
    match TRACE_JOURNALS.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(_) => Vec::new(),
    }
}

fn run_scenarios_inner<T: Send + 'static>(
    scenarios: Vec<Scenario<T>>,
    threads: usize,
    tracing: bool,
) -> Captured<T> {
    let n = scenarios.len();
    let t0 = Instant::now();
    // Each job runs start-to-finish on one worker thread, so thread-local
    // scopes around it capture exactly that scenario's events and charges;
    // `run_ordered` brings everything back in submission order with the
    // results. The registry scope is always on — it never perturbs the
    // simulation (the drift test pins this) and feeds the summary's
    // `cycles` section; the trace scope costs a journal allocation per
    // scenario and stays opt-in.
    type Instrumented<T> = (T, Option<Journal>, Option<Registry>);
    let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
    let jobs: Vec<Job<Instrumented<T>>> = scenarios
        .into_iter()
        .map(|s| {
            let job = s.job;
            Box::new(move || {
                registry::scope::begin();
                if tracing {
                    scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
                }
                let result = job();
                let journal = if tracing { scope::end() } else { None };
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
    let mut journals = Vec::new();
    let mut registries = Vec::new();
    for (name, (result, journal, reg)) in names.into_iter().zip(pool::run_ordered(jobs, threads)) {
        results.push(result);
        if let Some(j) = journal {
            journals.push((name.clone(), j));
        }
        if let Some(r) = reg {
            registries.push((name, r));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    crate::wallclock::record("engine", elapsed);
    eprintln!(
        "[scenario-engine] {n} scenario(s) on {} worker(s) in {elapsed:.2}s",
        threads.min(n.max(1)),
    );
    (results, journals, registries)
}

/// Serializes the `.trace.json` document for one target straight into a
/// `String` — byte-for-byte what [`trace_json`] + [`Json::write_into`]
/// produce, without materializing a [`Json`] tree first. Journals run to
/// millions of events; the intermediate tree costs ~10 heap allocations
/// per event (a `Vec` of pairs plus owned key strings), which dominates
/// the artifact dump on fault-heavy targets. A test pins the two paths
/// byte-identical across every event kind.
pub fn trace_doc_string(target: &str, journals: &[(String, Journal)]) -> String {
    // ~95 bytes/event across the suite's journals; oversizing slightly
    // avoids a late doubling of a hundred-megabyte buffer.
    let events: usize = journals.iter().map(|(_, j)| j.records.len()).sum();
    let mut out = String::with_capacity(128 * events + 1024);
    out.push_str("{\"target\":");
    json::escape_into(target, &mut out);
    out.push_str(",\"scenarios\":[");
    for (i, (name, journal)) in journals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::escape_into(name, &mut out);
        out.push_str(",\"dropped\":");
        json::num_into(journal.dropped as f64, &mut out);
        out.push_str(",\"events\":[");
        for (j, r) in journal.records.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"t\":");
            json::num_into(r.at.get() as f64, &mut out);
            out.push_str(",\"pid\":");
            json::num_into(r.pid as f64, &mut out);
            out.push_str(",\"machine\":");
            json::num_into(r.machine as f64, &mut out);
            out.push_str(",\"kind\":");
            json::escape_into(r.event.kind(), &mut out);
            for (k, v) in r.event.fields() {
                out.push(',');
                json::escape_into(k, &mut out);
                out.push(':');
                json::num_into(v as f64, &mut out);
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The `.trace.json` document for one target: every scenario's journal in
/// submission order, each event flattened to `{t, pid, machine, kind,
/// <payload fields>}`.
pub fn trace_json(target: &str, journals: &[(String, Journal)]) -> Json {
    let scenarios = journals
        .iter()
        .map(|(name, journal)| {
            let events = journal
                .records
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("t", Json::int(r.at.get())),
                        ("pid", Json::int(r.pid as u64)),
                        ("machine", Json::int(r.machine as u64)),
                        ("kind", Json::str(r.event.kind())),
                    ];
                    for (k, v) in r.event.fields() {
                        fields.push((k, Json::int(v)));
                    }
                    Json::obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("dropped", Json::int(journal.dropped)),
                ("events", Json::Arr(events)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("target", Json::str(target)),
        ("scenarios", Json::Arr(scenarios)),
    ])
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

    /// Prints the text to stdout and writes the JSON summary. The write
    /// path (or failure) is reported on stderr only, keeping stdout
    /// deterministic.
    pub fn finish(self) {
        print!("{}", self.text());
        write_json(self.target, &self.json());
    }
}

/// Writes one JSON summary file, reporting the outcome on stderr.
/// Multi-section targets (ablations) assemble their own [`Json`] and call
/// this once.
pub fn write_json(target: &str, json: &Json) {
    write_json_in(&json::results_dir(), target, json);
}

/// The explicit-dir variant of [`write_json`]: drains the metric and
/// trace queues into `<dir>/<target>.json` / `<dir>/<target>.trace.json`.
/// `hawkeye-report` uses this to collect the whole suite's artifacts in
/// one place without mutating process environment.
pub fn write_json_in(dir: &std::path::Path, target: &str, json: &Json) {
    let t0 = Instant::now();
    let snapshots = take_metric_snapshots();
    let json = if snapshots.is_empty() {
        json.clone()
    } else {
        let mut j = json.clone();
        j.push("cycles", cycles_json(&snapshots));
        j
    };
    match json::write_results_in(dir, target, &json) {
        Ok(path) => eprintln!("[scenario-engine] wrote {}", path.display()),
        Err(e) => eprintln!("[scenario-engine] could not write {target}.json: {e}"),
    }
    crate::wallclock::record("summary_write", t0.elapsed().as_secs_f64());
    write_trace_results(dir, target);
    write_obs_results(dir, target);
    // Dump the host-side timing sidecar last: it collects the phases the
    // lines above just recorded (plus the engine phase) without ever
    // touching the deterministic artifacts.
    crate::wallclock::write_in(dir, target);
}

/// Dumps the journals queued by traced runs (if any) to
/// `<dir>/<target>.trace.json`. A no-op when tracing was off; stdout is
/// untouched either way.
fn write_trace_results(dir: &std::path::Path, target: &str) {
    let journals = take_queued_trace_journals();
    if journals.is_empty() {
        return;
    }
    let t0 = Instant::now();
    let stem = format!("{target}.trace");
    let mut doc = trace_doc_string(target, &journals);
    doc.push('\n');
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, doc)?;
        Ok(path)
    };
    match write() {
        Ok(path) => eprintln!("[scenario-engine] wrote {}", path.display()),
        Err(e) => eprintln!("[scenario-engine] could not write {stem}.json: {e}"),
    }
    crate::wallclock::record("trace_write", t0.elapsed().as_secs_f64());
}

/// Dumps the telemetry document queued by [`queue_obs_doc`] (if any) to
/// `<dir>/<target>.obs.json`. A no-op when telemetry was off.
fn write_obs_results(dir: &std::path::Path, target: &str) {
    let Some(mut doc) = take_queued_obs_docs().pop() else {
        return;
    };
    if !doc.ends_with('\n') {
        doc.push('\n');
    }
    let stem = format!("{target}.obs");
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, doc)?;
        Ok(path)
    };
    match write() {
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
    fn streamed_trace_doc_matches_tree_serialization() {
        use hawkeye_metrics::Cycles;
        use hawkeye_trace::{Journal, TraceEvent, TraceRecord};
        // One record per event kind, plus name characters that need
        // escaping — the streaming writer must reproduce the tree
        // serialization byte for byte.
        let events = vec![
            TraceEvent::Fault {
                vpn: 7,
                huge: true,
                cow: false,
                cycles: 6095,
            },
            TraceEvent::Promote {
                hvpn: 3,
                copied: 512,
                filled: 0,
                cycles: 1,
            },
            TraceEvent::Demote { hvpn: 3, cycles: 2 },
            TraceEvent::Compact {
                migrated: 10,
                huge_blocks: 2,
            },
            TraceEvent::PreZero { pages: 512 },
            TraceEvent::Dedup {
                hvpn: 4,
                zero_pages: 100,
                demoted: true,
                cycles: 9,
            },
            TraceEvent::Oom,
            TraceEvent::QuantumEnd {
                load_walk: 1,
                store_walk: 2,
                unhalted: 3,
                walks: 4,
            },
            TraceEvent::CycleSample {
                walk: 1,
                fault: 2,
                zero: 3,
                copy: 4,
                scan: 5,
                compact: 6,
                dedup: 7,
                idle: 8,
                unhalted: 36,
                daemon: 9,
            },
            TraceEvent::Contention {
                core: 3,
                role: 1,
                acquisitions: 250,
                cas_retries: 17,
                stall_cycles: 42_000,
            },
            TraceEvent::SloBreach {
                rule: 0,
                epoch: 3,
                cohort: 1,
            },
            TraceEvent::SloRecover {
                rule: 0,
                epoch: 6,
                cohort: 1,
            },
        ];
        let records = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                at: Cycles::new(i as u64 * 1_000_000_007),
                pid: i as u32,
                machine: (i % 2) as u32,
                event,
            })
            .collect();
        let journals = vec![
            (
                "quoted \"name\"\n".to_string(),
                Journal {
                    records,
                    dropped: 3,
                },
            ),
            (
                "empty".to_string(),
                Journal {
                    records: Vec::new(),
                    dropped: 0,
                },
            ),
        ];
        let streamed = trace_doc_string("demo \\target", &journals);
        assert_eq!(streamed, trace_json("demo \\target", &journals).to_string());
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
        let serial = run_scenarios_with(build(), 1);
        let parallel = run_scenarios_with(build(), 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![128, 256, 384, 512, 640, 768]);
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
