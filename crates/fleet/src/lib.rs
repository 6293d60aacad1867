//! Fleet-scale serving for the HawkEye simulator.
//!
//! This crate instantiates thousands of cheap fast-path
//! [`hawkeye_kernel::Machine`]s behind an orchestrator: diurnal traffic
//! curves and tenant churn drive per-host workload intensity, overcommit
//! storms trigger ballooning and tenant migration between hosts, and
//! memory-pressure cascades propagate through a host group
//! (DESIGN.md §15).
//!
//! The control plane is the **userspace policy hook API** ([`FleetHook`],
//! mirroring eBPF-mm, arXiv 2409.11220): hooks observe each host's
//! `hawkeye-trace` event stream and registry gauges at epoch boundaries
//! and return [`hawkeye_kernel::Steering`] decisions — promotion
//! throttle, khugepaged budget, demotion pressure — applied at quantum
//! boundaries. Cohorts pair a kernel policy with a hook, so policies can
//! be composed and A/B-tested fleet-wide in one run.
//!
//! Everything is deterministic: host groups fan out across the
//! [`pool`] worker pool (moved here from `hawkeye-bench`, which
//! re-exports it), each group's story is serial, and all randomness
//! comes from seeded `SplitMix64` streams — fleet artifacts are
//! byte-identical at any `HAWKEYE_BENCH_THREADS`.
//!
//! # Examples
//!
//! ```
//! use hawkeye_fleet::{run, CohortSpec, FleetConfig, NoopHook};
//! use hawkeye_kernel::{BasePagesOnly, KernelConfig};
//!
//! let mut cfg = FleetConfig::sized(4);
//! cfg.epochs = 2;
//! let cohort = CohortSpec {
//!     name: "baseline",
//!     policy: || Box::new(BasePagesOnly),
//!     config: |mib| {
//!         let mut k = KernelConfig::small();
//!         k.frames = mib * 256;
//!         k
//!     },
//!     hook: || Box::new(NoopHook),
//! };
//! let result = run(&cfg, &[cohort], 2);
//! assert_eq!(result.cohorts.len(), 1);
//! assert!(result.cohorts[0].faults > 0);
//! ```

#![warn(missing_docs)]

pub mod hook;
pub mod host;
pub mod orchestrator;
pub mod pool;

pub use hook::{FleetHook, HostObs, NoopHook, ThrottleUnderPressure};
pub use host::{Host, HostCounters, TenantSpec};
pub use orchestrator::{run, CohortSlo, CohortSpec, FleetConfig, FleetResult};
