//! Deterministic fleet telemetry for the HawkEye simulator.
//!
//! The fleet layer (`hawkeye-fleet`) produces thousands of hosts' worth
//! of per-epoch signal — kernel counters, registry snapshots, FMFI,
//! utilization — but until this crate that signal evaporated into
//! end-of-run aggregates. `hawkeye-obs` turns it into artifacts you can
//! watch **over time**:
//!
//! 1. **Time series** ([`series`]) — per-cohort, per-epoch accumulators
//!    built on [`QuantileSketch`](hawkeye_metrics::QuantileSketch), the
//!    four-buckets-per-octave layout of the mergeable
//!    [`Histogram`](hawkeye_metrics::Histogram): p50/p90/p99/p999 fault
//!    latency, MMU overhead, RSS headroom, FMFI.
//!    Accumulators merge *exactly* (every field additive or min/max), so
//!    host groups reduce in submission order and the resulting series are
//!    byte-identical at any worker count.
//! 2. **SLO engine** ([`slo`]) — declarative multi-window burn-rate rules
//!    (fast/slow epoch windows, Google-SRE style) evaluated over those
//!    series; edge-triggered breach/recover alerts become typed
//!    `slo_breach`/`slo_recover` trace events and an `ALERTS.md` artifact
//!    ([`alerts`]); EWMA z-score annotations ([`anomaly`]) flag
//!    fault-latency and FMFI outliers.
//! 3. **Perf-trajectory ledger** ([`ledger`]) — schema-versioned
//!    `BENCH_<n>.json` entries appended per suite run (deterministic work
//!    counters; wall clock quarantined to an advisory digest), rendered
//!    run-over-run as `TREND.md` with a `--check`-style regression gate.
//!
//! # Collection
//!
//! Every fleet run collects: the fleet runner folds each host's
//! per-epoch `HostObs` window — the same one its hook reads — into the
//! accumulators, pure reads of state the epoch loop already computes,
//! and the `fleet_slo` target always writes the document. Everything
//! downstream of collection is a pure function of the collected
//! document, so artifacts are reproducible from `fleet_slo.obs.json`
//! alone.

#![warn(missing_docs)]

pub mod alerts;
pub mod anomaly;
pub mod doc;
pub mod ledger;
pub mod series;
pub mod slo;

pub use alerts::alerts_md;
pub use anomaly::{ewma_anomalies, Anomaly};
pub use doc::{Alert, AlertKind, CohortObs, ObsDoc, RuleDoc, OBS_SCHEMA_VERSION};
pub use ledger::{regressions, trend_md, LedgerRun, LedgerTarget, LEDGER_SCHEMA_VERSION};
pub use series::{finalize, CohortAcc, CohortSeries, EpochAcc, EpochPoint};
pub use slo::{default_rules, evaluate, slo_trace_records, BurnRule, Direction, SeriesKey};
