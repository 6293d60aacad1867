//! HawkEye: the paper's huge-page management algorithms.
//!
//! This crate implements the four ideas of §3 on top of the simulated
//! kernel:
//!
//! 1. **Async pre-zeroing** ([`prezero`]) — a rate-limited daemon moves
//!    free pages from the non-zero to the zero lists with non-temporal
//!    stores, so huge faults are fast *and* rare (§3.1, Table 1, Table 8).
//! 2. **Bloat recovery** ([`bloat`]) — under memory pressure (85 % / 70 %
//!    watermarks), scan huge pages of the process with the lowest MMU
//!    overhead for zero-filled base pages and de-duplicate them against
//!    the canonical zero page (§3.2, Fig. 1, Table 7).
//! 3. **Fine-grained promotion** ([`access_map`]) — per-process bucket
//!    arrays indexed by EMA *access-coverage*, promoting hot regions first
//!    regardless of virtual-address order (§3.3, Figs. 5–6).
//! 4. **MMU-overhead-driven fairness** ([`HawkEye`]) — HawkEye-PMU reads
//!    hardware counters (Table 4), HawkEye-G estimates from access
//!    coverage; both allocate huge pages to the neediest process first
//!    (§3.4, Fig. 7, Table 9).
//!
//! # Examples
//!
//! ```
//! use hawkeye_core::{HawkEye, HawkEyeConfig, Variant};
//! use hawkeye_kernel::{KernelConfig, Simulator, HugePagePolicy};
//!
//! let g = HawkEye::new(HawkEyeConfig::default());
//! assert_eq!(g.name(), "HawkEye-G");
//! let pmu = HawkEye::new(HawkEyeConfig { variant: Variant::Pmu, ..Default::default() });
//! assert_eq!(pmu.name(), "HawkEye-PMU");
//! let _sim = Simulator::new(KernelConfig::small(), Box::new(g));
//! ```

pub mod access_map;
pub mod bloat;
pub mod config;
pub mod estimator;
pub mod hawkeye;
pub mod prezero;

pub use access_map::{AccessMap, BUCKETS};
pub use bloat::BloatRecovery;
pub use config::{HawkEyeConfig, Variant};
pub use estimator::estimate_overhead;
pub use hawkeye::HawkEye;
pub use prezero::PrezeroDaemon;
