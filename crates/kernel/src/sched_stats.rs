//! Process-wide scheduler quantum counter.
//!
//! Every [`crate::Simulator`] counts the quanta it executes
//! ([`crate::Simulator::quanta`]) and also adds each one here, so a
//! harness that runs one target at a time (the report suite's per-target
//! quanta, the `perf/` benchmark) can take deltas of machine-independent
//! totals without threading simulator handles through every layer.
//! Tests that need one simulator's count read
//! [`crate::Simulator::quanta`] instead: sibling tests add to this total
//! concurrently.
//!
//! The counter is host-side instrumentation only: it is never part of
//! deterministic simulation output (reports, traces, metric registries).

use std::sync::atomic::{AtomicU64, Ordering};

static QUANTA_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Adds one executed quantum to the process-wide total.
pub(crate) fn count_quantum() {
    QUANTA_TOTAL.fetch_add(1, Ordering::Relaxed);
}

/// `(quanta_total, 0)`: the quanta every simulator in this process has
/// executed since start. Callers take deltas. The second value is
/// always 0 and stays only because the `perf/` benchmark destructures
/// the pair.
pub fn snapshot() -> (u64, u64) {
    (QUANTA_TOTAL.load(Ordering::Relaxed), 0)
}
