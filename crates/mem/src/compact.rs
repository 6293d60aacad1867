//! Memory compaction: migrating movable frames to assemble free huge pages.
//!
//! This is the substrate `khugepaged` relies on when fragmentation is high:
//! Linux compacts memory to create the contiguous 2 MB blocks promotions
//! need. The simulator's compactor scans huge-page-aligned regions,
//! migrates movable base-page frames out of partially-free regions (cheapest
//! regions first), and lets buddy merging reassemble the region into a free
//! huge block.
//!
//! Migration must update the owning process's page table, which lives above
//! this crate — callers supply a `migrate(src, dst) -> bool` callback that
//! performs the remap and may veto the move.
//!
//! A pass costs what it does, not the size of memory: candidates come from
//! [`PhysMemory`]'s per-region free/unmovable counts (one summary per
//! 2 MiB region, never a frame-table scan), and a region's claimed and
//! migrated frames are tracked in 512-bit maps.

use crate::buddy::{AllocPref, PhysMemory};
use crate::frame::{FrameState, OwnerTag};
use crate::types::{Order, Pfn, BASE_PAGES_PER_HUGE, HUGE_ORDER};
use hawkeye_trace::TraceEvent;

/// Outcome of one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Huge-page-aligned regions examined.
    pub scanned_regions: u64,
    /// Base pages migrated.
    pub migrated_pages: u64,
    /// Regions fully freed into (at least) a huge block.
    pub huge_blocks_freed: u64,
}

#[derive(Debug, Clone, Copy)]
struct RegionSummary {
    base: Pfn,
    movable: u64,
}

/// One bit per frame of a 2 MiB region, indexed by offset in the region.
#[derive(Debug, Clone, Copy, Default)]
struct RegionBits([u64; (BASE_PAGES_PER_HUGE / 64) as usize]);

impl RegionBits {
    fn set(&mut self, off: u64) {
        self.0[(off / 64) as usize] |= 1 << (off % 64);
    }

    fn contains(&self, off: u64) -> bool {
        self.0[(off / 64) as usize] >> (off % 64) & 1 != 0
    }

    /// The set offsets, ascending.
    fn offsets(self) -> impl Iterator<Item = u64> {
        self.0.into_iter().enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as u64;
                    word &= word - 1;
                    w as u64 * 64 + bit
                })
            })
        })
    }
}

/// Runs one compaction pass over `pm`, migrating at most `max_migrations`
/// base pages.
///
/// Regions containing unmovable frames are skipped. For each candidate
/// region (cheapest first), every movable allocated frame is migrated to a
/// destination obtained from the buddy allocator (non-zero list preferred),
/// with `migrate(src, dst, owner)` giving the owner a chance to update its
/// page table (the source frame's reverse-map tag is passed along); a
/// `false` return vetoes the move and abandons that region.
///
/// Returns statistics; `huge_blocks_freed` counts regions that ended fully
/// free (and therefore merged into free huge blocks).
pub fn compact<F>(pm: &mut PhysMemory, max_migrations: u64, mut migrate: F) -> CompactionStats
where
    F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
{
    let mut stats = CompactionStats::default();
    let mut candidates: Vec<RegionSummary> = Vec::new();
    for (r, counts) in pm.region_counts().iter().enumerate() {
        stats.scanned_regions += 1;
        let free = counts.free();
        let unmovable = u64::from(counts.unmovable);
        let movable = BASE_PAGES_PER_HUGE - free - unmovable;
        if unmovable == 0 && movable > 0 && free > 0 {
            candidates.push(RegionSummary { base: Pfn(r as u64 * BASE_PAGES_PER_HUGE), movable });
        }
    }
    // Cheapest regions (fewest migrations to liberate a huge block) first.
    candidates.sort_by_key(|r| (r.movable, r.base.0));

    let mut budget = max_migrations;
    for region in candidates {
        if budget < region.movable {
            break;
        }
        if compact_region(pm, region.base, &mut budget, &mut stats, &mut migrate) {
            stats.huge_blocks_freed += 1;
        }
    }
    if stats.migrated_pages > 0 || stats.huge_blocks_freed > 0 {
        pm.trace().emit(
            0,
            TraceEvent::Compact {
                migrated: stats.migrated_pages,
                huge_blocks: stats.huge_blocks_freed,
            },
        );
    }
    stats
}

/// Attempts to fully liberate one region. Returns true if the region ended
/// entirely free.
fn compact_region<F>(
    pm: &mut PhysMemory,
    base: Pfn,
    budget: &mut u64,
    stats: &mut CompactionStats,
    migrate: &mut F,
) -> bool
where
    F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
{
    // Phase 1: claim the region's free frames so destination allocations
    // cannot land inside the region we are trying to liberate.
    let claimed = claim_free_in_region(pm, base);

    // Phase 2: migrate movable allocated frames out.
    let mut moved = RegionBits::default();
    let mut aborted = false;
    for i in 0..BASE_PAGES_PER_HUGE {
        let src = Pfn(base.0 + i);
        if claimed.contains(i) || pm.frame(src).is_free() {
            continue;
        }
        if !pm.frame(src).is_movable() {
            aborted = true;
            break;
        }
        if *budget == 0 {
            // Earlier migrations may have moved extra frames *into* this
            // region, exceeding the scan-time estimate.
            aborted = true;
            break;
        }
        let Ok(dst) = pm.alloc(Order(0), AllocPref::NonZeroed) else {
            aborted = true;
            break;
        };
        let (content, owner, kind) = {
            let f = pm.frame(src);
            (f.content(), f.owner(), f.kind())
        };
        if !migrate(src, dst.pfn, owner) {
            pm.free(dst.pfn, Order(0));
            aborted = true;
            break;
        }
        // Copy page identity to the destination frame.
        pm.frame_mut(dst.pfn).set_content(content);
        pm.set_owner(dst.pfn, owner);
        pm.set_kind(dst.pfn, kind);
        pm.set_movable(dst.pfn, true);
        moved.set(i);
        stats.migrated_pages += 1;
        *budget -= 1;
    }

    if aborted {
        // Partial progress: release what we touched piecemeal, in
        // ascending frame order.
        for off in moved.offsets() {
            let src = Pfn(base.0 + off);
            // Migrated data now lives at the destination; the source
            // frame's stale contents must not look pre-zeroed (`free`
            // drops its owner).
            pm.frame_mut(src).set_content(crate::content::PageContent::non_zero(0));
            pm.free(src, Order(0));
        }
        for off in claimed.offsets() {
            pm.free(Pfn(base.0 + off), Order(0));
        }
        return false;
    }
    // Phase 3 (success): every frame in the region is now kernel-held
    // (claimed or migrated-out source); free the region as one huge block
    // so it enters the free lists whole regardless of mixed zero-ness.
    for off in moved.offsets() {
        pm.frame_mut(Pfn(base.0 + off)).set_content(crate::content::PageContent::non_zero(0));
    }
    pm.free(base, HUGE_ORDER);
    true
}

/// Removes every free frame of the region from the free lists and marks it
/// kernel-claimed (allocated, unmovable). Returns the claimed frames.
fn claim_free_in_region(pm: &mut PhysMemory, base: Pfn) -> RegionBits {
    let mut claimed = RegionBits::default();
    let region_end = base.0 + BASE_PAGES_PER_HUGE;
    // The region's free count says when every free frame has been found.
    let mut unclaimed = pm.region_counts()[(base.0 / BASE_PAGES_PER_HUGE) as usize].free();
    let mut i = base.0;
    while i < region_end && unclaimed > 0 {
        let pfn = Pfn(i);
        if !pm.frame(pfn).is_free() {
            i += 1;
            continue;
        }
        // Find the head/order of the free block containing `pfn`.
        let (head, order) = find_free_block(pm, pfn).expect("free frame must be in a block");
        let listz = pm.frame(head).on_zero_list() as usize;
        pm.claim_remove(head, order, listz);
        // Re-insert any part of the block outside the region (an order-10
        // block spans two huge regions).
        let block_end = head.0 + order.pages();
        for p in head.0..block_end {
            if p >= base.0 && p < region_end {
                pm.claim_mark(Pfn(p));
                claimed.set(p - base.0);
                unclaimed -= 1;
            }
        }
        // Outside portions (before/after the region) go back to the lists
        // as order-0 frames; merging restores larger blocks.
        for p in head.0..block_end {
            if p < base.0 || p >= region_end {
                pm.claim_reinsert(Pfn(p));
            }
        }
        i = block_end.max(i + 1);
    }
    claimed
}

fn find_free_block(pm: &PhysMemory, pfn: Pfn) -> Option<(Pfn, Order)> {
    for o in 0..=crate::types::MAX_ORDER.0 {
        let order = Order(o);
        let head = pfn.block_base(order);
        let f = pm.frame(head);
        if f.state() == FrameState::FreeHead && f.free_order == o {
            return Some((head, order));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buddy::AllocPref;
    use crate::content::PageContent;
    use crate::frame::{FrameKind, OwnerTag};
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Builds memory where every huge region has a few scattered movable
    /// allocations, so no free huge block exists.
    fn fragmented_memory(frames: u64) -> (PhysMemory, Vec<Pfn>) {
        let mut pm = PhysMemory::new(frames);
        let mut all = Vec::new();
        while let Ok(a) = pm.alloc(Order(0), AllocPref::Zeroed) {
            all.push(a.pfn);
        }
        let mut kept = Vec::new();
        for pfn in all {
            // Keep one page out of every 64 allocated; free the rest.
            if pfn.0 % 64 == 0 {
                pm.set_owner(pfn, Some(OwnerTag { pid: 1, vpn: pfn.0 }));
                pm.frame_mut(pfn).set_content(PageContent::non_zero(3));
                kept.push(pfn);
            } else {
                pm.free(pfn, Order(0));
            }
        }
        (pm, kept)
    }

    #[test]
    fn compaction_creates_huge_blocks() {
        let (mut pm, kept) = fragmented_memory(4096);
        assert!(pm.largest_free_order().unwrap() < HUGE_ORDER, "setup: fragmented");
        let mut remaps = Vec::new();
        let stats = compact(&mut pm, u64::MAX, |src, dst, _owner| {
            remaps.push((src, dst));
            true
        });
        assert!(stats.huge_blocks_freed > 0, "no huge blocks created: {stats:?}");
        assert_eq!(stats.migrated_pages as usize, remaps.len());
        assert!(pm.largest_free_order().unwrap() >= HUGE_ORDER);
        pm.check_invariants();
        // Every kept page still exists somewhere with its content intact
        // (either unmigrated or at its migration destination).
        let mut live = 0;
        for pfn in 0..pm.total_frames() {
            let f = pm.frame(Pfn(pfn));
            if !f.is_free() && f.owner().map(|o| o.pid) == Some(1) {
                assert_eq!(f.content(), PageContent::non_zero(3));
                live += 1;
            }
        }
        assert_eq!(live, kept.len());
    }

    #[test]
    fn budget_limits_migrations() {
        let (mut pm, _) = fragmented_memory(4096);
        let stats = compact(&mut pm, 5, |_, _, _| true);
        assert!(stats.migrated_pages <= 5, "{stats:?}");
        pm.check_invariants();
    }

    #[test]
    fn unmovable_regions_are_skipped() {
        // Four regions, each with eight movable owned pages, one pinned
        // frame at its end and free frames: every region would be a
        // candidate but for the pin.
        let mut pm = PhysMemory::new(2048);
        while pm.alloc(Order(0), AllocPref::Zeroed).is_ok() {}
        let mut pins = Vec::new();
        for pfn in (0..pm.total_frames()).map(Pfn) {
            let off = pfn.0 % BASE_PAGES_PER_HUGE;
            if off == BASE_PAGES_PER_HUGE - 1 {
                pm.set_kind(pfn, FrameKind::Pinned);
                pins.push(pfn);
            } else if off.is_multiple_of(64) {
                pm.set_owner(pfn, Some(OwnerTag { pid: 1, vpn: pfn.0 }));
                pm.frame_mut(pfn).set_content(PageContent::non_zero(3));
            } else {
                pm.free(pfn, Order(0));
            }
        }
        pm.check_invariants();
        let stats = compact(&mut pm, u64::MAX, |_, _, _| true);
        assert_eq!(stats.migrated_pages, 0, "a pinned region was compacted: {stats:?}");
        assert_eq!(stats.huge_blocks_freed, 0);
        pm.check_invariants();

        // Unpin region 2: it, and only it, is liberated.
        pm.set_kind(pins[2], FrameKind::Anon);
        pm.set_movable(pins[2], true);
        let mut sources = Vec::new();
        let stats = compact(&mut pm, u64::MAX, |src, _, _| {
            sources.push(src);
            true
        });
        pm.check_invariants();
        assert_eq!(stats.huge_blocks_freed, 1, "{stats:?}");
        assert_eq!(stats.migrated_pages, 9, "{stats:?}");
        assert!(sources.iter().all(|src| src.0 / BASE_PAGES_PER_HUGE == 2), "{sources:?}");
        let region2 = 2 * BASE_PAGES_PER_HUGE..3 * BASE_PAGES_PER_HUGE;
        assert!(region2.clone().all(|p| pm.frame(Pfn(p)).is_free()));
        for (r, pin) in pins.iter().enumerate().filter(|(r, _)| *r != 2) {
            assert!(!pm.frame(*pin).is_movable(), "region {r} lost its pin");
        }
    }

    #[test]
    fn veto_aborts_region_but_preserves_memory() {
        let (mut pm, kept) = fragmented_memory(2048);
        let before = pm.allocated_pages();
        let stats = compact(&mut pm, u64::MAX, |_, _, _| false);
        assert_eq!(stats.migrated_pages, 0);
        assert_eq!(stats.huge_blocks_freed, 0);
        assert_eq!(pm.allocated_pages(), before);
        pm.check_invariants();
        let _ = kept;
    }

    #[test]
    fn migration_updates_callback_with_valid_frames() {
        let (mut pm, _) = fragmented_memory(2048);
        compact(&mut pm, u64::MAX, |src, dst, _owner| {
            assert_ne!(src, dst);
            assert_ne!(src.block_base(HUGE_ORDER), dst.block_base(HUGE_ORDER),
                "destination must be outside the source region");
            true
        });
        pm.check_invariants();
    }

    /// The frame-scanning compactor as it stood before the per-region
    /// counts and claimed-frame bitmaps: a test oracle only.
    mod reference {
        use super::super::{find_free_block, CompactionStats, RegionSummary};
        use crate::buddy::{AllocPref, PhysMemory};
        use crate::content::PageContent;
        use crate::frame::OwnerTag;
        use crate::types::{Order, Pfn, BASE_PAGES_PER_HUGE, HUGE_ORDER};

        pub fn compact<F>(pm: &mut PhysMemory, max_migrations: u64, mut migrate: F) -> CompactionStats
        where
            F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
        {
            let mut stats = CompactionStats::default();
            let total = pm.total_frames();
            let mut candidates: Vec<RegionSummary> = Vec::new();
            let mut base = 0u64;
            while base + BASE_PAGES_PER_HUGE <= total {
                stats.scanned_regions += 1;
                let (mut movable, mut free, mut unmovable) = (0u64, 0u64, 0u64);
                for i in 0..BASE_PAGES_PER_HUGE {
                    let f = pm.frame(Pfn(base + i));
                    if f.is_free() {
                        free += 1;
                    } else if f.is_movable() {
                        movable += 1;
                    } else {
                        unmovable += 1;
                    }
                }
                if unmovable == 0 && movable > 0 && free > 0 {
                    candidates.push(RegionSummary { base: Pfn(base), movable });
                }
                base += BASE_PAGES_PER_HUGE;
            }
            candidates.sort_by_key(|r| (r.movable, r.base.0));
            let mut budget = max_migrations;
            for region in candidates {
                if budget < region.movable {
                    break;
                }
                if compact_region(pm, region.base, &mut budget, &mut stats, &mut migrate) {
                    stats.huge_blocks_freed += 1;
                }
            }
            stats
        }

        fn compact_region<F>(
            pm: &mut PhysMemory,
            base: Pfn,
            budget: &mut u64,
            stats: &mut CompactionStats,
            migrate: &mut F,
        ) -> bool
        where
            F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
        {
            let claimed = claim_free_in_region(pm, base);
            let mut moved: Vec<Pfn> = Vec::new();
            let mut aborted = false;
            for i in 0..BASE_PAGES_PER_HUGE {
                let src = Pfn(base.0 + i);
                if claimed.contains(&src) || pm.frame(src).is_free() {
                    continue;
                }
                if !pm.frame(src).is_movable() || *budget == 0 {
                    aborted = true;
                    break;
                }
                let Ok(dst) = pm.alloc(Order(0), AllocPref::NonZeroed) else {
                    aborted = true;
                    break;
                };
                let (content, owner, kind) = {
                    let f = pm.frame(src);
                    (f.content(), f.owner(), f.kind())
                };
                if !migrate(src, dst.pfn, owner) {
                    pm.free(dst.pfn, Order(0));
                    aborted = true;
                    break;
                }
                pm.frame_mut(dst.pfn).set_content(content);
                pm.set_owner(dst.pfn, owner);
                pm.set_kind(dst.pfn, kind);
                pm.set_movable(dst.pfn, true);
                moved.push(src);
                stats.migrated_pages += 1;
                *budget -= 1;
            }
            if aborted {
                for src in moved {
                    pm.frame_mut(src).set_content(PageContent::non_zero(0));
                    pm.set_owner(src, None);
                    pm.free(src, Order(0));
                }
                for pfn in claimed {
                    pm.free(pfn, Order(0));
                }
                return false;
            }
            for src in moved {
                pm.frame_mut(src).set_content(PageContent::non_zero(0));
                pm.set_owner(src, None);
            }
            pm.free(base, HUGE_ORDER);
            true
        }

        fn claim_free_in_region(pm: &mut PhysMemory, base: Pfn) -> Vec<Pfn> {
            let mut claimed = Vec::new();
            let region_end = base.0 + BASE_PAGES_PER_HUGE;
            let mut i = base.0;
            while i < region_end {
                let pfn = Pfn(i);
                if !pm.frame(pfn).is_free() {
                    i += 1;
                    continue;
                }
                let (head, order) = find_free_block(pm, pfn).expect("free frame must be in a block");
                let listz = pm.block_is_zeroed(head, order) as usize;
                pm.claim_remove(head, order, listz);
                let block_end = head.0 + order.pages();
                for p in head.0..block_end {
                    if p >= base.0 && p < region_end {
                        pm.claim_mark(Pfn(p));
                        claimed.push(Pfn(p));
                    }
                }
                for p in head.0..block_end {
                    if p < base.0 || p >= region_end {
                        pm.claim_reinsert(Pfn(p));
                    }
                }
                i = block_end.max(i + 1);
            }
            claimed
        }
    }

    /// One callback invocation: source, destination, owner, and the answer.
    type Call = (Pfn, Pfn, Option<OwnerTag>, bool);
    type Migrate<'a> = &'a mut dyn FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool;

    /// Runs `compactor` on a clone of `pm`; the callback vetoes about one
    /// move in `veto_one_in` (never when 0), drawing from `veto_seed`.
    fn run_on_clone(
        pm: &PhysMemory,
        budget: u64,
        veto_seed: u64,
        veto_one_in: u64,
        compactor: fn(&mut PhysMemory, u64, Migrate<'_>) -> CompactionStats,
    ) -> (PhysMemory, CompactionStats, Vec<Call>) {
        let mut pm = pm.clone();
        let mut rng = SplitMix64::new(veto_seed);
        let mut calls = Vec::new();
        let stats = compactor(&mut pm, budget, &mut |src, dst, owner| {
            let ok = veto_one_in == 0 || rng.below(veto_one_in) != 0;
            calls.push((src, dst, owner, ok));
            ok
        });
        (pm, stats, calls)
    }

    /// Drives one random sequence of allocator operations and compactions
    /// over `frames` frames. After every step the region counts must match
    /// a full rescan, and `compact` on a clone must reproduce the
    /// reference compactor exactly: stats, callback sequence, every frame
    /// and the free lists.
    fn check_against_reference(frames: u64, seed: u64, steps: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut pm = PhysMemory::new(frames);
        // Live blocks by head frame; compaction splits a migrated block
        // into order-0 pieces.
        let mut live: BTreeMap<u64, Order> = BTreeMap::new();
        let pick_live = |rng: &mut SplitMix64, live: &BTreeMap<u64, Order>| {
            let n = rng.below(live.len() as u64) as usize;
            let (&head, &order) = live.iter().nth(n).expect("index below len");
            (head, order)
        };
        for _ in 0..steps {
            match rng.below(100) {
                0..=39 => {
                    let order =
                        if rng.below(4) == 0 { Order(rng.below(11) as u8) } else { Order(rng.below(3) as u8) };
                    let pref = if rng.below(2) == 0 { AllocPref::Zeroed } else { AllocPref::NonZeroed };
                    if let Ok(a) = pm.alloc(order, pref) {
                        for p in a.pfn.0..a.pfn.0 + order.pages() {
                            if rng.below(3) != 0 {
                                pm.frame_mut(Pfn(p)).set_content(PageContent::non_zero(rng.below(4096) as u16));
                            }
                            if rng.below(4) != 0 {
                                pm.set_owner(Pfn(p), Some(OwnerTag { pid: rng.below(3) as u32 + 1, vpn: p }));
                            }
                        }
                        live.insert(a.pfn.0, a.order);
                    }
                }
                40..=64 if !live.is_empty() => {
                    let (head, order) = pick_live(&mut rng, &live);
                    live.remove(&head);
                    pm.free(Pfn(head), order);
                }
                65..=74 if !live.is_empty() => {
                    let (head, order) = pick_live(&mut rng, &live);
                    let pfn = Pfn(head + rng.below(order.pages()));
                    pm.set_movable(pfn, rng.below(3) != 0);
                }
                75..=81 if !live.is_empty() => {
                    let (head, order) = pick_live(&mut rng, &live);
                    let pfn = Pfn(head + rng.below(order.pages()));
                    let kind = if rng.below(2) == 0 { FrameKind::Anon } else { FrameKind::Pinned };
                    pm.set_kind(pfn, kind);
                }
                _ => {
                    let budget = if rng.below(4) == 0 { u64::MAX } else { rng.below(600) };
                    let mut moves = Vec::new();
                    let mut veto = SplitMix64::new(rng.next_u64());
                    compact(&mut pm, budget, |src, dst, _| {
                        let ok = veto.below(16) != 0;
                        if ok {
                            moves.push((src, dst));
                        }
                        ok
                    });
                    for (src, dst) in moves {
                        let (&head, &order) =
                            live.range(..=src.0).next_back().expect("migrated frame is live");
                        assert!(src.0 < head + order.pages(), "{src} is not in a live block");
                        live.remove(&head);
                        for p in (head..head + order.pages()).filter(|&p| p != src.0) {
                            live.insert(p, Order(0));
                        }
                        live.insert(dst.0, Order(0));
                    }
                }
            }
            pm.check_invariants();

            let budget = if rng.below(3) == 0 { u64::MAX } else { rng.below(1200) };
            let veto_seed = rng.next_u64();
            let veto_one_in = [0, 8, 64][rng.below(3) as usize];
            let (new_pm, new_stats, new_calls) =
                run_on_clone(&pm, budget, veto_seed, veto_one_in, |pm, b, f| compact(pm, b, f));
            let (ref_pm, ref_stats, ref_calls) =
                run_on_clone(&pm, budget, veto_seed, veto_one_in, |pm, b, f| reference::compact(pm, b, f));
            assert_eq!(new_stats, ref_stats, "frames {frames} seed {seed}");
            assert_eq!(new_calls, ref_calls, "frames {frames} seed {seed}");
            new_pm.assert_same_state(&ref_pm);
            new_pm.check_invariants();
        }
    }

    #[test]
    fn compaction_matches_frame_scanning_reference() {
        for (frames, steps) in [(1024, 600), (2048, 600), (8192, 300)] {
            for seed in [1, 2, 3] {
                check_against_reference(frames, seed, steps);
            }
        }
    }
}
