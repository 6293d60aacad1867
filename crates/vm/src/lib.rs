//! Virtual-memory substrate of the HawkEye simulator.
//!
//! Models the per-process pieces of Linux's `mm`: virtual memory areas,
//! a page table supporting mixed 4 KB / 2 MB mappings with accessed/dirty
//! bits, RSS accounting, `madvise(MADV_DONTNEED)`-style unmapping, and the
//! canonical-zero-page copy-on-write mappings that HawkEye's bloat recovery
//! (§3.2) de-duplicates zero-filled pages into.
//!
//! The kernel crate drives these address spaces: it owns the physical
//! allocator and charges simulated time; this crate is purely the mapping
//! machinery.
//!
//! # Examples
//!
//! ```
//! use hawkeye_vm::{AddressSpace, Vpn, VmaKind};
//! use hawkeye_mem::Pfn;
//!
//! let mut space = AddressSpace::new();
//! space.mmap(Vpn(0), 1024, VmaKind::Anon)?;
//! space.map_base(Vpn(3), Pfn(77))?;
//! assert_eq!(space.translate(Vpn(3)).unwrap().pfn, Pfn(77));
//! assert_eq!(space.rss_pages(), 1);
//! # Ok::<(), hawkeye_vm::MapError>(())
//! ```

pub mod error;
pub mod page_table;
pub mod space;
pub mod types;
pub mod vma;

pub use error::MapError;
pub use page_table::{AccessSample, BaseEntry, HugeEntry, PageTable, Translation};
pub use space::AddressSpace;
pub use types::{Hvpn, PageSize, Vpn};
pub use vma::{Vma, VmaKind};
