//! Every call this benchmark makes into run state that lives outside the
//! simulator: the process-wide scheduler counters and the thread-local
//! trace and metric-registry scopes.
//!
//! These APIs are the ones expected to change when per-run state moves
//! into the simulator itself. Keeping the calls in one module means that
//! change touches one file of the benchmark; `perf/README.md` lists them.

use hawkeye_metrics::{registry, Registry};
use hawkeye_trace::{scope, Journal, DEFAULT_CAPACITY};

/// `(quanta_total, quanta_skipped)` flushed by every simulator run in
/// this process so far. Callers take deltas around one run: the benchmark
/// runs one simulation at a time on one thread, so a delta is exactly
/// that run's count.
pub fn quanta() -> (u64, u64) {
    hawkeye_kernel::sched_stats::snapshot()
}

/// Opens the registry and trace scopes on this thread, as the report
/// suite's scenario engine does, so machines built next attach to them.
pub fn open_scopes() {
    registry::scope::begin();
    scope::begin(DEFAULT_CAPACITY);
}

/// Closes both scopes, returning the journal and the registry.
pub fn close_scopes() -> (Option<Journal>, Option<Registry>) {
    let journal = scope::end();
    (journal, registry::scope::end())
}
