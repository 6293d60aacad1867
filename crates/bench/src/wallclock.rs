//! Host wall-clock bookkeeping for the bench artifact pipeline.
//!
//! Perf regressions are invisible in a deterministic simulator — every
//! simulated observable is byte-identical no matter how slow the host
//! path was. This module gives the suite a host-side record instead:
//! engine and artifact-dump phases stamp their elapsed wall time here
//! (from [`std::time::Instant`], a monotonic clock), and
//! [`write_in`] dumps the per-target breakdown to
//! `<dir>/<target>.wallclock.json` next to the deterministic summary.
//!
//! Wall-clock never enters deterministic output: not the summary JSON,
//! not the trace journal, not stdout tables, not REPORT.md. The
//! `.wallclock.json` sidecar is the only place host time appears, so
//! determinism gates (`cmp` on artifacts, the worker-count test) stay
//! byte-exact while `hawkeye-report` can still render a suite
//! wall-clock table (see EXPERIMENTS.md "Suite wall-clock").
//!
//! The sidecar also carries the event-skip scheduler's quanta counters
//! ([`hawkeye_kernel::sched_stats`]) for the window since the previous
//! target's dump, so skip efficiency rides along with the timing it
//! explains.

use std::sync::Mutex;

use crate::json::Json;

/// Phases recorded since the last [`take`], in first-recorded order.
static PHASES: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());

/// Charges `secs` of host wall-clock to `phase` for the target whose
/// artifacts are currently being produced. Repeated charges to the same
/// phase accumulate (multi-section targets run the engine several
/// times).
pub fn record(phase: &'static str, secs: f64) {
    if let Ok(mut q) = PHASES.lock() {
        match q.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += secs,
            None => q.push((phase, secs)),
        }
    }
}

/// Drains every phase recorded since the last drain.
pub fn take() -> Vec<(&'static str, f64)> {
    match PHASES.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(_) => Vec::new(),
    }
}

/// The `<target>.wallclock.json` document: phase breakdown and the
/// event-skip scheduler's quanta window.
pub fn doc(
    target: &str,
    phases: &[(&'static str, f64)],
    quanta_total: u64,
    quanta_skipped: u64,
) -> Json {
    let total: f64 = phases.iter().map(|(_, s)| *s).sum();
    Json::obj(vec![
        ("target", Json::str(target)),
        (
            "phases",
            Json::Arr(
                phases
                    .iter()
                    .map(|(p, s)| {
                        Json::obj(vec![("phase", Json::str(*p)), ("secs", Json::num(*s))])
                    })
                    .collect(),
            ),
        ),
        ("total_secs", Json::num(total)),
        ("quanta_total", Json::int(quanta_total)),
        ("quanta_skipped", Json::int(quanta_skipped)),
    ])
}

/// Drains the recorded phases and the process-wide quanta counters and
/// writes `<dir>/<target>.wallclock.json`. Resets the quanta counters so
/// the next target gets its own window. Failures are reported on stderr
/// only — host timing must never fail a bench run.
pub fn write_in(dir: &std::path::Path, target: &str) {
    let phases = take();
    let (quanta_total, quanta_skipped) = hawkeye_kernel::sched_stats::snapshot();
    hawkeye_kernel::sched_stats::reset();
    if phases.is_empty() && quanta_total == 0 {
        return;
    }
    let json = doc(target, &phases, quanta_total, quanta_skipped);
    let path = dir.join(format!("{target}.wallclock.json"));
    let mut out = String::new();
    json.write_into(&mut out);
    out.push('\n');
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("[scenario-engine] could not write {target}.wallclock.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_phase_and_take_drains() {
        // The queue is process-global; drain whatever other tests left.
        let _ = take();
        record("engine", 1.5);
        record("trace_write", 0.25);
        record("engine", 0.5);
        let phases = take();
        assert_eq!(phases, vec![("engine", 2.0), ("trace_write", 0.25)]);
        assert!(take().is_empty(), "take drains");
    }

    #[test]
    fn doc_carries_phases_totals_and_quanta() {
        let phases = vec![("engine", 12.5), ("summary_write", 0.75)];
        let text = doc("fig7", &phases, 1000, 400).to_string();
        assert!(text.contains("\"target\":\"fig7\""));
        assert!(text.contains("\"phase\":\"engine\""));
        assert!(text.contains("\"secs\":12.5"));
        assert!(text.contains("\"total_secs\":13.25"));
        assert!(text.contains("\"quanta_total\":1000"));
        assert!(text.contains("\"quanta_skipped\":400"));
    }
}
