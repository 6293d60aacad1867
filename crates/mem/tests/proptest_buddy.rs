//! Property tests for the buddy allocator and compactor.
//!
//! Random interleavings of alloc / dirty / free / pre-zero / compact must
//! preserve the allocator's structural invariants, never hand out
//! overlapping blocks, and conserve pages exactly.
//!
//! Inputs come from the in-tree `SplitMix64` with fixed seeds, one
//! generator per case, so every run checks the same cases.

use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::{compact::compact, AllocPref, Order, PageContent, Pfn, PhysMemory, MAX_ORDER};

const FRAMES: u64 = 4096;

/// Cases per property.
const CASES: u64 = 64;

/// The generator for case `case` of the property seeded `seed`.
fn case_rng(seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { order: u8, zeroed: bool },
    Free { slot: usize },
    Dirty { slot: usize, offset: u16 },
    Prezero { budget: u64 },
    Compact { budget: u64 },
}

fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.below(5) {
        0 => Op::Alloc {
            order: rng.below(u64::from(MAX_ORDER.0) + 1) as u8,
            zeroed: rng.below(2) == 1,
        },
        1 => Op::Free { slot: rng.next_u64() as usize },
        2 => Op::Dirty { slot: rng.next_u64() as usize, offset: rng.below(4096) as u16 },
        3 => Op::Prezero { budget: rng.below(2048) },
        _ => Op::Compact { budget: rng.below(512) },
    }
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

#[test]
fn random_ops_preserve_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(0xB0DD, case);
        let ops: Vec<Op> = (0..range(&mut rng, 1, 120)).map(|_| random_op(&mut rng)).collect();
        let mut pm = PhysMemory::new(FRAMES);
        let mut live: Vec<(Pfn, Order)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { order, zeroed } => {
                    let pref = if zeroed { AllocPref::Zeroed } else { AllocPref::NonZeroed };
                    if let Ok(a) = pm.alloc(Order(order), pref) {
                        // aligned & in-range
                        assert!(a.pfn.is_aligned(a.order));
                        assert!(a.pfn.0 + a.order.pages() <= FRAMES);
                        // zero promise honored
                        if a.was_zeroed {
                            assert!(pm.block_is_zeroed(a.pfn, a.order));
                        }
                        // disjoint from every live allocation
                        let range = (a.pfn.0, a.pfn.0 + a.order.pages());
                        for (p, o) in &live {
                            assert!(
                                !overlaps(range, (p.0, p.0 + o.pages())),
                                "allocator returned overlapping block"
                            );
                        }
                        live.push((a.pfn, a.order));
                    }
                }
                Op::Free { slot } => {
                    if !live.is_empty() {
                        let (pfn, order) = live.swap_remove(slot % live.len());
                        pm.free(pfn, order);
                    }
                }
                Op::Dirty { slot, offset } => {
                    if !live.is_empty() {
                        let (pfn, order) = live[slot % live.len()];
                        // dirty a deterministic page of the block
                        let page = Pfn(pfn.0 + (offset as u64 % order.pages()));
                        pm.frame_mut(page).set_content(PageContent::non_zero(offset));
                    }
                }
                Op::Prezero { budget } => {
                    let z = pm.prezero_step(budget);
                    assert!(z <= budget);
                }
                Op::Compact { budget } => {
                    // Vetoing every migration keeps the live blocks in
                    // place, so nothing may move.
                    let stats = compact(&mut pm, budget, |_, _, _| false);
                    assert_eq!(stats.migrated_pages, 0);
                }
            }
            // Page conservation.
            let live_pages: u64 = live.iter().map(|(_, o)| o.pages()).sum();
            assert_eq!(pm.allocated_pages(), live_pages);
            assert!(pm.zeroed_free_pages() <= pm.free_pages());
        }
        pm.check_invariants();
        // Freeing everything restores a fully-free system.
        for (pfn, order) in live.drain(..) {
            pm.free(pfn, order);
        }
        assert_eq!(pm.free_pages(), FRAMES);
        pm.check_invariants();
    }
}

#[test]
fn prezero_converges_to_fully_zeroed() {
    for case in 0..CASES {
        let mut rng = case_rng(0x2E50, case);
        let dirties: Vec<(u64, u16)> = (0..range(&mut rng, 0, 64))
            .map(|_| (rng.below(FRAMES), rng.below(4096) as u16))
            .collect();
        let mut pm = PhysMemory::new(FRAMES);
        // Allocate everything, dirty random pages, free everything.
        let mut blocks = Vec::new();
        while let Ok(b) = pm.alloc(MAX_ORDER, AllocPref::Zeroed) {
            blocks.push(b);
        }
        assert_eq!(blocks.len() as u64, FRAMES / MAX_ORDER.pages());
        for (pfn, off) in &dirties {
            pm.frame_mut(Pfn(*pfn)).set_content(PageContent::non_zero(*off));
        }
        for b in blocks {
            pm.free(b.pfn, b.order);
        }
        // Daemon with any positive budget eventually zeroes everything.
        let mut guard = 0;
        while pm.prezero_step(97) > 0 {
            guard += 1;
            assert!(guard < 10_000, "pre-zeroing failed to converge");
        }
        assert_eq!(pm.zeroed_free_pages(), FRAMES);
        // And the zero pool re-merges into max-order blocks.
        assert_eq!(pm.zeroed_blocks(MAX_ORDER), FRAMES / MAX_ORDER.pages());
        pm.check_invariants();
    }
}

#[test]
fn compaction_with_permissive_migration_never_loses_pages() {
    for case in 0..CASES {
        let mut rng = case_rng(0xC0A7, case);
        let keep_mod = range(&mut rng, 3, 64);
        let budget = rng.below(4096);
        let mut pm = PhysMemory::new(FRAMES);
        let mut live = Vec::new();
        while let Ok(a) = pm.alloc(Order(0), AllocPref::Zeroed) {
            live.push(a.pfn);
        }
        let mut kept = 0u64;
        for pfn in live {
            if pfn.0 % keep_mod == 0 {
                pm.frame_mut(pfn).set_content(PageContent::non_zero(7));
                kept += 1;
            } else {
                pm.free(pfn, Order(0));
            }
        }
        assert_eq!(pm.allocated_pages(), kept);
        let stats = compact(&mut pm, budget, |_, _, _| true);
        assert!(stats.migrated_pages <= budget);
        // Allocated page count is unchanged: migration moves, never drops.
        assert_eq!(pm.allocated_pages(), kept);
        pm.check_invariants();
    }
}
