//! The simulated operating-system kernel.
//!
//! This crate glues the substrates together into a runnable machine:
//!
//! * [`Machine`] — physical memory + MMU + processes + the canonical zero
//!   page, exposing the primitives every huge-page policy is built from:
//!   fault-time allocation, promotion (collapse), demotion (split),
//!   zero-page de-duplication, compaction, file-cache reclaim, and the
//!   async pre-zeroing step.
//! * [`HugePagePolicy`] — the plug-in interface. The `policies` crate
//!   implements Linux THP, FreeBSD reservations and Ingens; the `core`
//!   crate implements HawkEye-G and HawkEye-PMU.
//! * [`Simulator`] — the run loop: round-robin process execution in
//!   parallel-core quanta, periodic policy ticks (daemon work), metric
//!   sampling, and completion/OOM tracking.
//! * [`Workload`] / [`MemOp`] — the interface workload generators drive.
//!
//! # Examples
//!
//! ```
//! use hawkeye_kernel::{KernelConfig, Simulator, BasePagesOnly, workload::script};
//! use hawkeye_vm::{Vpn, VmaKind};
//! use hawkeye_kernel::MemOp;
//!
//! let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
//! let w = script("touch-1mb", vec![
//!     MemOp::Mmap { start: Vpn(0), pages: 256, kind: VmaKind::Anon },
//!     MemOp::TouchRange { start: Vpn(0), pages: 256, write: true, think: 100, stride: 1 , repeats: 1},
//! ]);
//! let pid = sim.spawn(w);
//! sim.run();
//! assert!(sim.machine().process(pid).unwrap().is_finished());
//! ```

pub mod config;
pub mod machine;
pub mod multicore;
pub mod policy;
pub mod process;
pub use hawkeye_mem::rng;
pub mod sched_stats;
pub mod sim;
pub mod stats;
pub mod workload;

pub use config::{CostModel, KernelConfig};
pub use machine::{DedupOutcome, Machine, PromoteError, Promoted};
pub use policy::{BasePagesOnly, FaultAction, HugePagePolicy, Steering};
pub use process::{ProcStats, Process};
pub use sim::{AccessHook, Simulator};
pub use stats::KernelStats;
pub use workload::{MemOp, Workload};
