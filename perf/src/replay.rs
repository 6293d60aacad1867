//! Layer-primitive replay: each `vm`, `tlb` and `mem` primitive timed in
//! isolation on one workload's own input stream.
//!
//! The touched pages a repetition emitted are replayed through
//! `PageTable::access` on a base-mapped and a huge-mapped table and
//! through a fresh `Mmu::access` at both page sizes; `PhysMemory`
//! alloc/free is replayed in the repetition's mix of base and huge
//! faults. The pages of all processes share one table and one address
//! space here, so these are per-primitive costs on the workload's access
//! pattern, not a re-simulation.

use hawkeye_kernel::KernelConfig;
use hawkeye_mem::{AllocPref, Allocation, Order, Pfn, PhysMemory, HUGE_ORDER};
use hawkeye_tlb::Mmu;
use hawkeye_vm::{Hvpn, PageSize, PageTable, Vpn};
use std::hint::black_box;
use std::time::Instant;

/// How many touched pages the replay uses at most.
pub const CAPTURE: usize = 4 << 20;

/// The allocator replay runs at least this many allocations.
const MIN_ALLOCS: u64 = 1 << 20;

/// Host nanoseconds per primitive call.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// `PageTable::access` with every page base-mapped.
    pub vm_base: f64,
    /// `PageTable::access` with every region huge-mapped.
    pub vm_huge: f64,
    /// `Mmu::access` at the base page size.
    pub tlb_base: f64,
    /// `Mmu::access` at the huge page size.
    pub tlb_huge: f64,
    /// One `PhysMemory::alloc` plus its `free`.
    pub alloc: f64,
}

fn per_call(t0: Instant, calls: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn table_access(pt: &mut PageTable, vpns: &[Vpn]) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in vpns {
        acc = acc.wrapping_add(pt.access(*v, false).expect("replayed page is mapped").pfn.0);
    }
    black_box(acc);
    per_call(t0, vpns.len())
}

fn mmu_access(cfg: &KernelConfig, vpns: &[Vpn], size: PageSize) -> f64 {
    let mut mmu = Mmu::new(cfg.tlb);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in vpns {
        acc = acc.wrapping_add(mmu.access(1, *v, size, false).cycles.get());
    }
    black_box(acc);
    per_call(t0, vpns.len())
}

fn alloc_free(cfg: &KernelConfig, base: u64, huge: u64) -> f64 {
    let mut pm = PhysMemory::with_cross_merge(cfg.frames, cfg.cross_merge);
    let per_round = (base + huge).max(1);
    let rounds = MIN_ALLOCS.div_ceil(per_round);
    let mut held: Vec<Allocation> = Vec::new();
    let free_all = |pm: &mut PhysMemory, held: &mut Vec<Allocation>| {
        for a in held.drain(..) {
            pm.free(a.pfn, a.order);
        }
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        for (order, n) in [(Order(0), base), (HUGE_ORDER, huge)] {
            for _ in 0..n {
                let a = match pm.alloc(order, AllocPref::Zeroed) {
                    Ok(a) => a,
                    Err(_) => {
                        free_all(&mut pm, &mut held);
                        pm.alloc(order, AllocPref::Zeroed)
                            .expect("empty memory fits one block")
                    }
                };
                held.push(a);
            }
        }
        free_all(&mut pm, &mut held);
    }
    per_call(t0, (rounds * per_round) as usize)
}

/// Replays the first [`CAPTURE`] of `vpns` and `base`/`huge` fault
/// allocations on layers configured like `cfg`'s machine.
pub fn replay(vpns: &[Vpn], cfg: &KernelConfig, base: u64, huge: u64) -> Replay {
    let vpns = &vpns[..vpns.len().min(CAPTURE)];
    let mut pages = vpns.to_vec();
    pages.sort_unstable();
    pages.dedup();
    let mut regions: Vec<Hvpn> = pages.iter().map(|v| v.hvpn()).collect();
    regions.dedup();

    let mut base_pt = PageTable::new();
    base_pt.set_translation_cache_enabled(cfg.fast_path);
    for (i, v) in pages.iter().enumerate() {
        base_pt
            .map_base(*v, Pfn(i as u64), false)
            .expect("distinct pages");
    }
    let mut huge_pt = PageTable::new();
    huge_pt.set_translation_cache_enabled(cfg.fast_path);
    for (i, h) in regions.iter().enumerate() {
        huge_pt
            .map_huge(*h, Pfn(i as u64 * 512))
            .expect("distinct regions");
    }
    Replay {
        vm_base: table_access(&mut base_pt, vpns),
        vm_huge: table_access(&mut huge_pt, vpns),
        tlb_base: mmu_access(cfg, vpns, PageSize::Base),
        tlb_huge: mmu_access(cfg, vpns, PageSize::Huge),
        alloc: alloc_free(cfg, base, huge),
    }
}
