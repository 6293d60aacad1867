//! Shared measurement utilities for the HawkEye simulator.
//!
//! This crate is the dependency root of the workspace. It provides:
//!
//! * [`Cycles`] — the simulated time base (CPU cycles at a nominal
//!   2.3 GHz, matching the paper's Intel E5-2690 v3 testbed), plus the
//!   [`SimClock`] that every component charges work to.
//! * [`series`] — time-series recording used to regenerate the paper's
//!   figures (RSS over time, MMU overhead over time, huge pages over time).
//! * [`stats`] — nearest-rank percentiles over `f64` samples.
//! * [`table`] — plain-text table rendering so each bench target can print
//!   rows in the same shape as the paper's tables.
//! * [`hist`] — the one histogram type, [`Histogram`], in its two layouts:
//!   [`LogHistogram`] (one bucket per power of two) and [`QuantileSketch`]
//!   (four per octave), both mergeable with deterministic percentiles.
//! * [`registry`] — the cycle-attribution registry: named counters, gauges,
//!   and [`LogHistogram`]s behind a zero-cost-when-disabled
//!   [`MetricsSink`], tagging every clock charge with a [`Subsystem`].
//! * [`json`] — the one JSON codec: a [`Json`](json::Json) value that
//!   writes and parses every artifact, plus the pull parser the streaming
//!   trace reader drives.
//!
//! # Examples
//!
//! ```
//! use hawkeye_metrics::{Cycles, SimClock};
//!
//! let mut clock = SimClock::new();
//! clock.advance(Cycles::from_micros(465)); // one 2 MB sync-zeroing fault
//! assert!(clock.now().as_secs() > 0.0004);
//! ```

#![warn(missing_docs)]

pub mod env;
pub mod hist;
pub mod json;
pub mod registry;
pub mod series;
pub mod stats;
pub mod table;
pub mod time;

pub use hist::{Histogram, LogHistogram, QuantileSketch};
pub use registry::{MachineMetrics, MetricsSink, Registry, Subsystem, UNHALTED};
pub use series::{Recorder, Reduce, Sample, TimeSeries};
pub use table::TextTable;
pub use time::{Cycles, SimClock, CPU_HZ};
