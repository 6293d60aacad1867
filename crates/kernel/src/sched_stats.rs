//! Process-wide event-skip scheduler counters.
//!
//! The run loop tracks, per [`crate::Simulator`], how many scheduler
//! quanta elapsed and how many of those were charged in closed form by
//! the event-skip scheduler instead of executed
//! ([`crate::Simulator::quanta`]). Simulators also flush those counts
//! here when a run call returns, so a harness that runs one target at a
//! time (the report suite's per-target quanta, the `perf/` benchmark)
//! can take deltas of machine-independent totals without threading
//! simulator handles through every layer. Tests that need one
//! simulator's count read [`crate::Simulator::quanta`] instead: sibling
//! tests flush into these totals concurrently.
//!
//! The counters are host-side instrumentation only: they are never part
//! of deterministic simulation output (reports, traces, metric
//! registries) — skipping changes *how* quanta are charged, not what any
//! simulated observable reads.

use std::sync::atomic::{AtomicU64, Ordering};

static QUANTA_TOTAL: AtomicU64 = AtomicU64::new(0);
static QUANTA_SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Adds one run call's quanta to the process-wide totals.
pub(crate) fn flush(total: u64, skipped: u64) {
    if total > 0 {
        QUANTA_TOTAL.fetch_add(total, Ordering::Relaxed);
    }
    if skipped > 0 {
        QUANTA_SKIPPED.fetch_add(skipped, Ordering::Relaxed);
    }
}

/// `(quanta_total, quanta_skipped)` accumulated by every simulator run
/// in this process since start. Callers take deltas.
pub fn snapshot() -> (u64, u64) {
    (QUANTA_TOTAL.load(Ordering::Relaxed), QUANTA_SKIPPED.load(Ordering::Relaxed))
}
