//! Physical-memory substrate of the HawkEye simulator.
//!
//! This crate models everything the paper's algorithms need from the machine
//! and from Linux's physical-memory layer:
//!
//! * [`types`] — page-frame numbers, orders, and the 4 KB / 2 MB geometry.
//! * [`content`] — a per-page *content model*: each base page is either
//!   zero-filled or has a first-non-zero-byte offset, which lets HawkEye's
//!   bloat-recovery scan (§3.2) charge realistic costs (≈10 bytes scanned
//!   per in-use page, 4096 per bloat page — Fig. 3).
//! * [`frame`] — per-frame metadata (kind, owner reverse-map, content).
//! * [`buddy`] — a Linux-style binary buddy allocator whose free lists are
//!   split into **zero** and **non-zero** lists exactly as HawkEye's async
//!   pre-zeroing design requires (§3.1).
//! * [`fmfi`] — Gorman's Free Memory Fragmentation Index, the signal
//!   Ingens uses to switch between aggressive and conservative promotion.
//! * [`compact`] — memory compaction (migrating movable frames to create
//!   contiguous huge-page-sized blocks), the khugepaged substrate.
//!
//! # Examples
//!
//! ```
//! use hawkeye_mem::{PhysMemory, AllocPref, HUGE_ORDER};
//!
//! // 64 MiB of simulated physical memory, all pre-zeroed at "boot".
//! let mut pm = PhysMemory::new(16 * 1024);
//! let huge = pm.alloc(HUGE_ORDER, AllocPref::Zeroed).unwrap();
//! assert!(huge.was_zeroed);
//! assert_eq!(pm.allocated_pages(), 512);
//! ```

pub mod buddy;
pub mod compact;
pub mod content;
pub mod error;
pub mod fmfi;
pub mod frame;
pub mod rng;
pub mod types;

pub use buddy::{AllocPref, Allocation, PhysMemory};
pub use compact::CompactionStats;
pub use content::PageContent;
pub use error::AllocError;
pub use frame::{Frame, FrameKind, OwnerTag};
pub use types::{
    Order, Pfn, BASE_PAGES_PER_HUGE, BASE_PAGE_SHIFT, BASE_PAGE_SIZE, HUGE_ORDER, HUGE_PAGE_SIZE,
    MAX_ORDER,
};
