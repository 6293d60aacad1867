//! Host-time benchmark of the HawkEye simulator.
//!
//! Four workloads, each stressing different layers, run closed-loop in one
//! process on one thread. An untraced invocation reports end-to-end host
//! time, throughput, set-up time and peak memory; a traced one reports
//! per-layer counts and self times, with spans written to
//! `target/perf/spans.json`. Every repetition's simulated outputs are
//! digested and checked. See `perf/README.md`.

pub mod digest;
pub mod harness;
pub mod heap;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod unstable;
pub mod workloads;
pub mod wrap;

/// Every binary and test linking this crate counts heap bytes per thread
/// (`heap::peak_since`), for the `peak_heap_mib` metric.
#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
