//! Binary buddy allocator with split **zero** / **non-zero** free lists.
//!
//! This is the substrate for HawkEye's async pre-zeroing (§3.1): pages
//! released by applications enter the *non-zero* lists; a rate-limited
//! daemon moves blocks to the *zero* lists after clearing them (see
//! [`PhysMemory::prezero_step`]); allocations that need zeroed memory are
//! served preferentially from the zero lists, while copy-on-write and
//! file-backed allocations prefer the non-zero lists so pre-zeroed memory
//! is not wasted on them.
//!
//! Zero-ness is authoritative in the per-frame [`PageContent`] tags; a free
//! block sits in the zero list iff *all* its frames are zero-filled. Each
//! free head records which list it is on, so splits and merges write and
//! read only block heads (DESIGN.md §7, "16-byte frame table").

use crate::content::PageContent;
use crate::error::AllocError;
use crate::frame::{Frame, FrameKind, FrameState, OwnerTag, NO_LINK};
use crate::types::{Order, Pfn, BASE_PAGES_PER_HUGE, HUGE_ORDER, MAX_ORDER};
use hawkeye_metrics::MetricsSink;
use hawkeye_trace::{TraceEvent, TraceSink};

const NORDERS: usize = MAX_ORDER.0 as usize + 1;

/// Which free list an allocation prefers.
///
/// Either preference falls back to the other list when the preferred one
/// cannot satisfy the request; [`Allocation::was_zeroed`] reports what the
/// caller actually got so it can charge synchronous zeroing cost if needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPref {
    /// Prefer pre-zeroed blocks (anonymous zero-fill allocations).
    #[default]
    Zeroed,
    /// Prefer non-zeroed blocks (COW targets, file cache) to conserve the
    /// zeroed pool.
    NonZeroed,
}

/// The result of a successful allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First frame of the allocated block (aligned to `order`).
    pub pfn: Pfn,
    /// Block order.
    pub order: Order,
    /// Whether every frame in the block was already zero-filled.
    pub was_zeroed: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FreeList {
    head: u32,
    blocks: u64,
}

impl FreeList {
    const EMPTY: FreeList = FreeList { head: NO_LINK, blocks: 0 };
}

/// Occupancy of one 2 MiB region, kept up to date by every operation that
/// allocates, frees or changes a frame's movability, so compaction ranks
/// regions without reading the frame table. The region's movable frames
/// are `allocated - unmovable`.
///
/// The region's free frames are counted as `512 - allocated`: allocation
/// state changes once per `alloc`/`free`, while free-list membership also
/// changes on every buddy split and merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RegionCounts {
    /// Allocated frames (including those the compactor has claimed).
    pub(crate) allocated: u16,
    /// Allocated frames compaction may not migrate.
    pub(crate) unmovable: u16,
}

impl RegionCounts {
    /// Frames inside free buddy blocks.
    pub(crate) fn free(self) -> u64 {
        BASE_PAGES_PER_HUGE - u64::from(self.allocated)
    }
}

/// Index of the 2 MiB region holding `pfn`.
#[inline]
fn region_of(pfn: Pfn) -> usize {
    (pfn.0 >> HUGE_ORDER.0) as usize
}

/// Simulated physical memory: a frame table plus the buddy allocator.
///
/// # Examples
///
/// ```
/// use hawkeye_mem::{PhysMemory, AllocPref, Order, HUGE_ORDER};
///
/// let mut pm = PhysMemory::new(4096);
/// let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
/// let h = pm.alloc(HUGE_ORDER, AllocPref::Zeroed).unwrap();
/// assert_eq!(pm.allocated_pages(), 513);
/// pm.free(a.pfn, a.order);
/// pm.free(h.pfn, h.order);
/// assert_eq!(pm.allocated_pages(), 0);
/// assert_eq!(pm.free_pages(), 4096);
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    frames: Vec<Frame>,
    /// `[order][zeroed as usize]`
    lists: [[FreeList; 2]; NORDERS],
    free_pages: u64,
    zeroed_free_pages: u64,
    /// One entry per 2 MiB region (see [`RegionCounts`]).
    regions: Vec<RegionCounts>,
    /// Whether free blocks of different zero-ness may merge (demoting the
    /// merged block to non-zero). HawkEye keeps this off to protect the
    /// pre-zeroed pool; baselines that never read the zero lists turn it on
    /// to match vanilla Linux merging.
    cross_merge: bool,
    /// Event journal handle; disabled (no-op) unless a trace scope attaches.
    trace: TraceSink,
    /// Cycle-attribution handle; disabled (no-op) unless a registry scope
    /// attaches.
    metrics: MetricsSink,
}

impl PhysMemory {
    /// Creates `total_frames` of physical memory, all free and zero-filled
    /// (freshly booted machine). Cross-zero-ness merging is disabled
    /// (HawkEye semantics) — see [`PhysMemory::with_cross_merge`].
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is 0 or not a multiple of the largest buddy
    /// block (`2^MAX_ORDER` frames), which keeps the frame table uniform.
    pub fn new(total_frames: u64) -> Self {
        Self::with_cross_merge(total_frames, false)
    }

    /// Creates physical memory choosing the merge policy: when
    /// `cross_merge` is true, free buddies of different zero-ness merge
    /// into a non-zero block (vanilla-Linux behaviour, for baselines that
    /// do not maintain a pre-zeroed pool); when false, such merges are
    /// deferred until the pre-zeroing daemon equalizes the blocks.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PhysMemory::new`].
    pub fn with_cross_merge(total_frames: u64, cross_merge: bool) -> Self {
        let block = MAX_ORDER.pages();
        assert!(total_frames > 0, "physical memory cannot be empty");
        assert_eq!(
            total_frames % block,
            0,
            "total_frames must be a multiple of {block} (the max buddy block)"
        );
        let mut pm = PhysMemory {
            frames: vec![Frame::default(); total_frames as usize],
            lists: [[FreeList::EMPTY; 2]; NORDERS],
            free_pages: 0,
            zeroed_free_pages: 0,
            regions: vec![RegionCounts::default(); (total_frames / BASE_PAGES_PER_HUGE) as usize],
            cross_merge,
            trace: TraceSink::default(),
            metrics: MetricsSink::default(),
        };
        let mut pfn = 0;
        while pfn < total_frames {
            pm.insert_free_block_nomerge(Pfn(pfn), MAX_ORDER, true);
            pfn += block;
        }
        pm
    }

    /// Install the event-journal sink used by pre-zeroing and compaction.
    /// The default sink is disabled (every emit is a no-op).
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// The event-journal sink (for free functions like `compact` that
    /// operate on this memory).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Install the cycle-attribution sink used by the pre-zeroing step.
    /// The default sink is disabled (every charge is a no-op).
    pub fn set_metrics_sink(&mut self, metrics: MetricsSink) {
        self.metrics = metrics;
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Number of free base pages.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Number of free base pages that are pre-zeroed.
    pub fn zeroed_free_pages(&self) -> u64 {
        self.zeroed_free_pages
    }

    /// Number of free base pages that still need zeroing.
    pub fn nonzeroed_free_pages(&self) -> u64 {
        self.free_pages - self.zeroed_free_pages
    }

    /// Number of allocated base pages.
    pub fn allocated_pages(&self) -> u64 {
        self.total_frames() - self.free_pages
    }

    /// Fraction of memory allocated, 0.0–1.0 (drives the watermark logic of
    /// HawkEye's bloat recovery).
    pub fn utilization(&self) -> f64 {
        self.allocated_pages() as f64 / self.total_frames() as f64
    }

    /// Shared view of a frame's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn frame(&self, pfn: Pfn) -> &Frame {
        &self.frames[pfn.index()]
    }

    /// Mutable view of a frame's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        &mut self.frames[pfn.index()]
    }

    /// Marks an allocated frame movable or unmovable for compaction
    /// (huge-mapped frames are unmovable as units; a pinned frame stays
    /// unmovable).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free: free frames are always movable
    /// anonymous frames, which is what lets `alloc` skip them in the
    /// region counts.
    pub fn set_movable(&mut self, pfn: Pfn, movable: bool) {
        self.update_mobility(pfn, |f| f.set_movable(movable));
    }

    /// Sets an allocated frame's kind; [`FrameKind::Pinned`] also makes it
    /// unmovable.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free, as [`PhysMemory::set_movable`] does.
    pub fn set_kind(&mut self, pfn: Pfn, kind: FrameKind) {
        self.update_mobility(pfn, |f| f.set_kind(kind));
    }

    /// Sets (or clears) an allocated frame's reverse-map owner. Pid
    /// `u32::MAX` is reserved (it encodes "no owner").
    ///
    /// # Panics
    ///
    /// Panics if the frame is free: a free frame's owner slots hold its
    /// free-list links.
    pub fn set_owner(&mut self, pfn: Pfn, owner: Option<OwnerTag>) {
        let f = &mut self.frames[pfn.index()];
        assert!(!f.is_free(), "{pfn} is free: only allocated frames have an owner");
        f.set_owner(owner);
    }

    /// Applies `change` to an allocated frame and moves it between its
    /// region's movable and unmovable counts if its movability flipped.
    fn update_mobility(&mut self, pfn: Pfn, change: impl FnOnce(&mut Frame)) {
        let f = &mut self.frames[pfn.index()];
        assert!(!f.is_free(), "{pfn} is free: only allocated frames change movability");
        let was_movable = f.is_movable();
        change(f);
        if f.is_movable() != was_movable {
            let unmovable = &mut self.regions[region_of(pfn)].unmovable;
            if was_movable {
                *unmovable += 1;
            } else {
                *unmovable -= 1;
            }
        }
    }

    /// Per-region occupancy, one entry per 2 MiB region in address order.
    pub(crate) fn region_counts(&self) -> &[RegionCounts] {
        &self.regions
    }

    /// Allocates a block of `order` contiguous, aligned frames.
    ///
    /// The preferred free list is searched from `order` upward, then the
    /// other list. Returns the block and whether it was entirely
    /// pre-zeroed.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidOrder`] if `order > MAX_ORDER`;
    /// [`AllocError::OutOfMemory`] if no block of sufficient order exists
    /// in either list (the buddy allocator does not compact here — see
    /// [`crate::compact`]).
    pub fn alloc(&mut self, order: Order, pref: AllocPref) -> Result<Allocation, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::InvalidOrder { order });
        }
        let preferred = match pref {
            AllocPref::Zeroed => 1usize,
            AllocPref::NonZeroed => 0usize,
        };
        let found = self
            .find_block(order, preferred)
            .or_else(|| self.find_block(order, 1 - preferred));
        let (pfn, at_order, listz) = found.ok_or(AllocError::OutOfMemory { order })?;
        self.remove_free_block(pfn, at_order, listz);
        // Split down to the requested order, returning upper halves. The
        // halves of a zero-list block are zeroed; a non-zero block can
        // still hold all-zero halves, so those are scanned.
        let zero_list = listz == 1;
        let mut cur_order = at_order;
        while cur_order > order {
            cur_order = Order(cur_order.0 - 1);
            let upper = Pfn(pfn.0 + cur_order.pages());
            let zeroed = zero_list || self.block_is_zeroed(upper, cur_order);
            self.insert_free_block_nomerge(upper, cur_order, zeroed);
        }
        let was_zeroed = zero_list || self.block_is_zeroed(pfn, order);
        self.mark_allocated(pfn, order);
        // How often the pre-zeroed pool absorbs a zero-demand allocation
        // (the paper's §3.1 win) vs. forcing synchronous zeroing.
        if pref == AllocPref::Zeroed {
            if was_zeroed {
                self.metrics.add("mem.zeroed_alloc_hits", order.pages());
            } else {
                self.metrics.add("mem.zeroed_alloc_misses", order.pages());
            }
        }
        Ok(Allocation { pfn, order, was_zeroed })
    }

    /// Frees the block of `order` frames starting at `pfn`, merging with
    /// free buddies. The frames' content tags are preserved, so a block
    /// dirtied by the application lands in the non-zero list.
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently allocated, or `pfn` is not
    /// aligned to `order`.
    pub fn free(&mut self, pfn: Pfn, order: Order) {
        assert!(pfn.is_aligned(order), "{pfn} not aligned to {order}");
        let mut zeroed = true;
        for i in 0..order.pages() {
            let f = &mut self.frames[pfn.index() + i as usize];
            assert_eq!(f.state(), FrameState::Allocated, "double free of {}", Pfn(pfn.0 + i));
            if !f.is_movable() {
                self.regions[region_of(Pfn(pfn.0 + i))].unmovable -= 1;
            }
            zeroed &= f.is_zeroed();
            f.make_free_tail();
        }
        self.count_allocated(pfn, order, false);
        self.insert_free_block(pfn, order, zeroed);
    }

    /// Zero-fills the frames of an *allocated* block (synchronous zeroing
    /// on the page-fault path). Cost accounting is the caller's job.
    ///
    /// # Panics
    ///
    /// Panics if any frame in the block is free.
    pub fn zero_block(&mut self, pfn: Pfn, order: Order) {
        for i in 0..order.pages() {
            let f = &mut self.frames[pfn.index() + i as usize];
            assert_eq!(f.state(), FrameState::Allocated, "zeroing a free frame");
            f.set_content(PageContent::Zero);
        }
    }

    /// One step of the async pre-zeroing daemon: takes up to `max_pages`
    /// frames from the non-zero free lists, zero-fills them, and returns
    /// them to the zero lists. Returns the number of pages zeroed (0 when
    /// the non-zero lists are empty or the budget is 0).
    ///
    /// Large blocks are split so a small budget still makes progress.
    pub fn prezero_step(&mut self, max_pages: u64) -> u64 {
        let mut budget = max_pages;
        let mut zeroed = 0;
        while budget > 0 {
            // Smallest non-zero block that exists.
            let Some((pfn, order)) = self.pop_smallest_nonzero() else { break };
            let mut order = order;
            // Split until the block fits in the remaining budget. The
            // block is non-zero, but its halves may be all-zero.
            while order.pages() > budget && order.0 > 0 {
                order = Order(order.0 - 1);
                let upper = Pfn(pfn.0 + order.pages());
                let all_zero = self.block_is_zeroed(upper, order);
                self.insert_free_block_nomerge(upper, order, all_zero);
            }
            if order.pages() > budget {
                // budget smaller than a single page cannot happen (order 0
                // is 1 page); defensive.
                let all_zero = self.block_is_zeroed(pfn, order);
                self.insert_free_block_nomerge(pfn, order, all_zero);
                break;
            }
            for i in 0..order.pages() {
                self.frames[pfn.index() + i as usize].set_content(PageContent::Zero);
            }
            // Reinsert: merging may now combine zeroed buddies.
            self.insert_free_block(pfn, order, true);
            zeroed += order.pages();
            budget -= order.pages();
        }
        if zeroed > 0 {
            self.trace.emit(0, TraceEvent::PreZero { pages: zeroed });
            self.metrics.add("mem.prezeroed_pages", zeroed);
        }
        zeroed
    }

    /// Whether every frame of the (free or allocated) block is zero-filled.
    pub fn block_is_zeroed(&self, pfn: Pfn, order: Order) -> bool {
        (0..order.pages()).all(|i| self.frames[pfn.index() + i as usize].is_zeroed())
    }

    /// Largest order for which a free block exists (in either list).
    pub fn largest_free_order(&self) -> Option<Order> {
        (0..NORDERS)
            .rev()
            .find(|&o| self.lists[o][0].blocks + self.lists[o][1].blocks > 0)
            .map(|o| Order(o as u8))
    }

    /// Histogram of free blocks by order: `hist[order] = block count`
    /// (zero + non-zero lists combined). Input to the FMFI computation.
    pub fn free_block_histogram(&self) -> [u64; NORDERS] {
        let mut h = [0u64; NORDERS];
        for (o, slot) in h.iter_mut().enumerate() {
            *slot = self.lists[o][0].blocks + self.lists[o][1].blocks;
        }
        h
    }

    /// Number of free blocks of exactly `order` in the zero list.
    pub fn zeroed_blocks(&self, order: Order) -> u64 {
        self.lists[order.index()][1].blocks
    }

    // ---- internals ------------------------------------------------------

    fn find_block(&self, order: Order, listz: usize) -> Option<(Pfn, Order, usize)> {
        (order.index()..NORDERS).find_map(|o| {
            let head = self.lists[o][listz].head;
            (head != NO_LINK).then_some((Pfn(head as u64), Order(o as u8), listz))
        })
    }

    fn pop_smallest_nonzero(&mut self) -> Option<(Pfn, Order)> {
        for o in 0..NORDERS {
            let head = self.lists[o][0].head;
            if head != NO_LINK {
                let pfn = Pfn(head as u64);
                let order = Order(o as u8);
                self.remove_free_block(pfn, order, 0);
                return Some((pfn, order));
            }
        }
        None
    }

    fn mark_allocated(&mut self, pfn: Pfn, order: Order) {
        for i in 0..order.pages() {
            let f = &mut self.frames[pfn.index() + i as usize];
            f.mark_allocated();
            // Free frames are movable (`free` resets them and the setters
            // refuse free frames), so the unmovable counts stay as they are.
            debug_assert!(f.is_movable());
        }
        self.count_allocated(pfn, order, true);
    }

    /// Adds a block's frames to (or, unless `add`, takes them from) the
    /// allocated counts of the regions it covers: a block of order up to 9
    /// sits inside one region, an order-10 block fills two.
    fn count_allocated(&mut self, pfn: Pfn, order: Order, add: bool) {
        let r = region_of(pfn);
        let (regions, per_region) = if order <= HUGE_ORDER {
            (1, order.pages() as u16)
        } else {
            ((order.pages() / BASE_PAGES_PER_HUGE) as usize, BASE_PAGES_PER_HUGE as u16)
        };
        for region in &mut self.regions[r..r + regions] {
            if add {
                region.allocated += per_region;
            } else {
                region.allocated -= per_region;
            }
        }
    }

    /// Inserts a block of free tails, `zeroed` iff all its frames are
    /// zero-filled, with buddy merging.
    fn insert_free_block(&mut self, mut pfn: Pfn, mut order: Order, mut zeroed: bool) {
        // Merge upward while the buddy is a free head of the same order and
        // the merge policy allows combining the two blocks' zero-ness.
        while order < MAX_ORDER {
            let buddy = pfn.buddy(order);
            if buddy.index() >= self.frames.len() {
                break;
            }
            let b = &self.frames[buddy.index()];
            if b.state() != FrameState::FreeHead || b.free_order != order.0 {
                break;
            }
            let bz = b.on_zero_list();
            if bz != zeroed && !self.cross_merge {
                break;
            }
            self.remove_free_block(buddy, order, bz as usize);
            pfn = pfn.min(buddy);
            order = Order(order.0 + 1);
            zeroed = zeroed && bz;
        }
        self.insert_free_block_nomerge(pfn, order, zeroed);
    }

    /// Pushes a block of free tails, `zeroed` iff all its frames are
    /// zero-filled, onto the front of its list. Writes only the head (and
    /// the old list head's `prev` link).
    fn insert_free_block_nomerge(&mut self, pfn: Pfn, order: Order, zeroed: bool) {
        let listz = zeroed as usize;
        let head = self.lists[order.index()][listz].head;
        self.frames[pfn.index()].make_free_head(order.0, zeroed, head);
        if head != NO_LINK {
            self.frames[head as usize].set_prev(pfn.0 as u32);
        }
        self.lists[order.index()][listz].head = pfn.0 as u32;
        self.lists[order.index()][listz].blocks += 1;
        self.free_pages += order.pages();
        if zeroed {
            self.zeroed_free_pages += order.pages();
        }
    }

    fn remove_free_block(&mut self, pfn: Pfn, order: Order, listz: usize) {
        let (prev, next) = {
            let f = &self.frames[pfn.index()];
            debug_assert_eq!(f.state(), FrameState::FreeHead);
            debug_assert_eq!(f.free_order, order.0);
            debug_assert_eq!(f.on_zero_list(), listz == 1);
            (f.prev(), f.next())
        };
        if prev != NO_LINK {
            self.frames[prev as usize].set_next(next);
        } else {
            debug_assert_eq!(self.lists[order.index()][listz].head, pfn.0 as u32);
            self.lists[order.index()][listz].head = next;
        }
        if next != NO_LINK {
            self.frames[next as usize].set_prev(prev);
        }
        self.frames[pfn.index()].clear_free_head();
        self.lists[order.index()][listz].blocks -= 1;
        self.free_pages -= order.pages();
        if listz == 1 {
            self.zeroed_free_pages -= order.pages();
        }
    }

    // ---- crate-internal hooks for the compactor --------------------------

    /// Removes a specific free block from its list (compaction claim).
    pub(crate) fn claim_remove(&mut self, head: Pfn, order: Order, listz: usize) {
        self.remove_free_block(head, order, listz);
    }

    /// Marks a (list-removed) frame as kernel-claimed: allocated, unmovable,
    /// unowned.
    pub(crate) fn claim_mark(&mut self, pfn: Pfn) {
        let f = &mut self.frames[pfn.index()];
        f.mark_allocated();
        f.set_movable(false);
        let counts = &mut self.regions[region_of(pfn)];
        counts.allocated += 1;
        counts.unmovable += 1;
    }

    /// Reinserts a single (list-removed) frame into the free lists.
    pub(crate) fn claim_reinsert(&mut self, pfn: Pfn) {
        let zeroed = self.frames[pfn.index()].is_zeroed();
        self.insert_free_block(pfn, Order(0), zeroed);
    }

    /// Debug invariant check: list membership, counters, zero-ness, the
    /// overlaid frame slots and the per-region counts all agree. Used by
    /// tests and property tests; O(frames).
    pub fn check_invariants(&self) {
        let mut free = 0u64;
        let mut zeroed_free = 0u64;
        let mut seen_heads = 0u64;
        for (o, pair) in self.lists.iter().enumerate() {
            for (z, list) in pair.iter().enumerate() {
                let mut cur = list.head;
                let mut count = 0u64;
                let mut prev = NO_LINK;
                while cur != NO_LINK {
                    let f = &self.frames[cur as usize];
                    assert_eq!(f.state(), FrameState::FreeHead);
                    assert_eq!(f.free_order as usize, o);
                    assert_eq!(f.prev(), prev);
                    assert_eq!(f.on_zero_list(), z == 1, "head {cur}'s zero-list bit disagrees with its list");
                    let order = Order(o as u8);
                    let pfn = Pfn(cur as u64);
                    assert!(pfn.is_aligned(order));
                    assert_eq!(self.block_is_zeroed(pfn, order), z == 1, "block {pfn} in wrong list");
                    free += order.pages();
                    if z == 1 {
                        zeroed_free += order.pages();
                    }
                    count += 1;
                    seen_heads += 1;
                    prev = cur;
                    cur = f.next();
                }
                assert_eq!(count, list.blocks, "block counter mismatch at order {o} z {z}");
            }
        }
        assert_eq!(free, self.free_pages, "free page counter mismatch");
        assert_eq!(zeroed_free, self.zeroed_free_pages, "zeroed counter mismatch");
        let mut heads = 0u64;
        let mut regions = vec![RegionCounts::default(); self.regions.len()];
        for (i, f) in self.frames.iter().enumerate() {
            match f.state() {
                FrameState::FreeHead => heads += 1,
                FrameState::FreeTail => {
                    assert!(f.slots_clear(), "free tail {i} holds a link");
                    assert!(!f.on_zero_list(), "free tail {i} has a zero-list bit");
                }
                FrameState::Allocated => {
                    assert!(!f.on_zero_list(), "allocated frame {i} has a zero-list bit");
                }
            }
            if f.is_free() {
                assert_eq!(f.owner(), None, "free frame {i} reads as owned");
            }
            let r = &mut regions[i >> HUGE_ORDER.0];
            if !f.is_free() {
                r.allocated += 1;
                r.unmovable += u16::from(!f.is_movable());
            }
        }
        assert_eq!(heads, seen_heads, "orphan free heads exist");
        for (r, (kept, rescanned)) in self.regions.iter().zip(&regions).enumerate() {
            assert_eq!(kept, rescanned, "region {r} counts disagree with a rescan");
        }
    }

    /// Asserts that `self` and `other` hold the same frames (state,
    /// linkage, kind, owner, movability, content), free lists, counters
    /// and region counts.
    #[cfg(test)]
    pub(crate) fn assert_same_state(&self, other: &PhysMemory) {
        assert_eq!(self.frames.len(), other.frames.len());
        for (i, (a, b)) in self.frames.iter().zip(&other.frames).enumerate() {
            assert!(a == b, "frame {i}: {a:?} != {b:?}");
        }
        assert_eq!(self.lists, other.lists, "free lists differ");
        assert_eq!(self.free_pages, other.free_pages);
        assert_eq!(self.zeroed_free_pages, other.zeroed_free_pages);
        assert_eq!(self.regions, other.regions, "region counts differ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::HUGE_ORDER;

    #[test]
    fn boot_memory_is_all_zeroed() {
        let pm = PhysMemory::new(2048);
        assert_eq!(pm.free_pages(), 2048);
        assert_eq!(pm.zeroed_free_pages(), 2048);
        assert_eq!(pm.allocated_pages(), 0);
        pm.check_invariants();
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_unaligned_total() {
        let _ = PhysMemory::new(1000);
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(Order(3), AllocPref::Zeroed).unwrap();
        assert!(a.was_zeroed);
        assert_eq!(pm.free_pages(), 1024 - 8);
        pm.check_invariants();
        pm.free(a.pfn, a.order);
        assert_eq!(pm.free_pages(), 1024);
        // All merged back into max-order blocks.
        assert_eq!(pm.largest_free_order(), Some(MAX_ORDER));
        pm.check_invariants();
    }

    #[test]
    fn dirty_free_lands_in_nonzero_list() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        pm.frame_mut(a.pfn).set_content(PageContent::non_zero(5));
        pm.free(a.pfn, a.order);
        // Without cross-merging, the dirty page stays isolated in the
        // non-zero list instead of demoting 1023 zeroed buddies.
        assert_eq!(pm.nonzeroed_free_pages(), 1);
        pm.check_invariants();
    }

    #[test]
    fn out_of_memory_reported() {
        let mut pm = PhysMemory::new(1024);
        // 1024 frames = one max-order block; a second max-order alloc fails.
        let _a = pm.alloc(MAX_ORDER, AllocPref::Zeroed).unwrap();
        let err = pm.alloc(Order(0), AllocPref::Zeroed).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn invalid_order_rejected() {
        let mut pm = PhysMemory::new(1024);
        let err = pm.alloc(Order(MAX_ORDER.0 + 1), AllocPref::Zeroed).unwrap_err();
        assert!(matches!(err, AllocError::InvalidOrder { .. }));
    }

    #[test]
    fn allocation_prefers_requested_list() {
        let mut pm = PhysMemory::new(2048);
        // Dirty one huge block and free it -> non-zero list.
        let a = pm.alloc(HUGE_ORDER, AllocPref::Zeroed).unwrap();
        for i in 0..HUGE_ORDER.pages() {
            pm.frame_mut(Pfn(a.pfn.0 + i)).set_content(PageContent::non_zero(0));
        }
        pm.free(a.pfn, a.order);
        pm.check_invariants();
        // A non-zero-preferring allocation takes the dirty block.
        let b = pm.alloc(HUGE_ORDER, AllocPref::NonZeroed).unwrap();
        assert!(!b.was_zeroed);
        assert_eq!(b.pfn, a.pfn);
        // A zero-preferring allocation gets pre-zeroed memory.
        let c = pm.alloc(HUGE_ORDER, AllocPref::Zeroed).unwrap();
        assert!(c.was_zeroed);
    }

    #[test]
    fn fallback_to_other_list_when_preferred_empty() {
        let mut pm = PhysMemory::new(1024);
        // Dirty everything: allocate all, dirty, free.
        let a = pm.alloc(MAX_ORDER, AllocPref::Zeroed).unwrap();
        for i in 0..MAX_ORDER.pages() {
            pm.frame_mut(Pfn(i)).set_content(PageContent::non_zero(1));
        }
        pm.free(a.pfn, a.order);
        assert_eq!(pm.zeroed_free_pages(), 0);
        let b = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        assert!(!b.was_zeroed, "fell back to non-zero list");
    }

    #[test]
    fn prezero_step_moves_pages_to_zero_list() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(MAX_ORDER, AllocPref::Zeroed).unwrap();
        for i in 0..MAX_ORDER.pages() {
            pm.frame_mut(Pfn(i)).set_content(PageContent::non_zero(1));
        }
        pm.free(a.pfn, a.order);
        assert_eq!(pm.zeroed_free_pages(), 0);
        // Rate-limited: only 100 pages this step.
        let z = pm.prezero_step(100);
        assert!(z > 0 && z <= 100, "zeroed {z}");
        assert_eq!(pm.zeroed_free_pages(), z);
        pm.check_invariants();
        // Finish the job.
        let mut total = z;
        loop {
            let z = pm.prezero_step(100);
            if z == 0 {
                break;
            }
            total += z;
        }
        assert_eq!(total, 1024);
        assert_eq!(pm.zeroed_free_pages(), 1024);
        // Everything merged back to one max-order zero block.
        assert_eq!(pm.zeroed_blocks(MAX_ORDER), 1);
        pm.check_invariants();
    }

    #[test]
    fn prezero_step_zero_budget_is_noop() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        pm.frame_mut(a.pfn).set_content(PageContent::non_zero(1));
        pm.free(a.pfn, a.order);
        assert_eq!(pm.prezero_step(0), 0);
        pm.check_invariants();
    }

    #[test]
    fn zero_block_on_allocated_pages() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(Order(2), AllocPref::Zeroed).unwrap();
        for i in 0..4 {
            pm.frame_mut(Pfn(a.pfn.0 + i)).set_content(PageContent::non_zero(3));
        }
        pm.zero_block(a.pfn, a.order);
        assert!(pm.block_is_zeroed(a.pfn, a.order));
    }

    #[test]
    fn histogram_reflects_splits() {
        let mut pm = PhysMemory::new(1024);
        let _a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        let h = pm.free_block_histogram();
        // Splitting one max-order block for an order-0 alloc leaves one
        // free block at each order 0..MAX_ORDER-1.
        for (o, count) in h.iter().enumerate().take(MAX_ORDER.index()) {
            assert_eq!(*count, 1, "order {o}");
        }
        assert_eq!(h[MAX_ORDER.index()], 0);
    }

    #[test]
    fn utilization_tracks_allocation() {
        let mut pm = PhysMemory::new(1024);
        assert_eq!(pm.utilization(), 0.0);
        let _a = pm.alloc(HUGE_ORDER, AllocPref::Zeroed).unwrap();
        assert!((pm.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn region_counts_follow_alloc_free_and_movability() {
        let mut pm = PhysMemory::new(2048);
        let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        pm.set_kind(a.pfn, FrameKind::Pinned);
        let r = region_of(a.pfn);
        assert_eq!(pm.region_counts()[r], RegionCounts { allocated: 1, unmovable: 1 });
        // An order-10 block covers two whole regions.
        let big = pm.alloc(MAX_ORDER, AllocPref::Zeroed).unwrap();
        let (r0, r1) = (region_of(big.pfn), region_of(big.pfn) + 1);
        assert_eq!(pm.region_counts()[r0], RegionCounts { allocated: 512, unmovable: 0 });
        assert_eq!(pm.region_counts()[r1], RegionCounts { allocated: 512, unmovable: 0 });
        pm.set_movable(Pfn(big.pfn.0 + 5), false);
        pm.set_movable(Pfn(big.pfn.0 + 512), false);
        pm.set_movable(Pfn(big.pfn.0 + 512), false);
        assert_eq!(pm.region_counts()[r0].unmovable, 1);
        assert_eq!(pm.region_counts()[r1].unmovable, 1);
        pm.check_invariants();
        pm.free(a.pfn, a.order);
        pm.free(big.pfn, big.order);
        for r in pm.region_counts() {
            assert_eq!(*r, RegionCounts::default());
        }
        pm.check_invariants();
    }

    #[test]
    #[should_panic(expected = "is free")]
    fn free_frames_keep_their_movability() {
        let mut pm = PhysMemory::new(1024);
        pm.set_movable(Pfn(7), false);
    }

    #[test]
    #[should_panic(expected = "is free")]
    fn set_owner_on_free_frame_panics() {
        let mut pm = PhysMemory::new(1024);
        pm.set_owner(Pfn(7), Some(OwnerTag { pid: 1, vpn: 7 }));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMemory::new(1024);
        let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
        pm.free(a.pfn, a.order);
        pm.free(a.pfn, a.order);
    }

    #[test]
    fn many_small_allocs_exhaust_exactly() {
        let mut pm = PhysMemory::new(1024);
        let mut got = Vec::new();
        while let Ok(a) = pm.alloc(Order(0), AllocPref::Zeroed) {
            got.push(a.pfn);
        }
        assert_eq!(got.len(), 1024);
        assert_eq!(pm.free_pages(), 0);
        // all distinct
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 1024);
        for pfn in got {
            pm.free(pfn, Order(0));
        }
        assert_eq!(pm.largest_free_order(), Some(MAX_ORDER));
        pm.check_invariants();
    }
}
