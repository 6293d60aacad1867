//! Per-frame metadata: the simulator's `struct page` analogue.
//!
//! Each 4 KB physical frame carries its allocation state, a kind (anonymous,
//! file-backed, pinned), an optional reverse-map owner tag (process + virtual
//! page, used by compaction to update page tables when migrating), a
//! movability flag, and the page-content tag from [`crate::content`].
//!
//! A frame is 16 bytes. Like Linux's `struct page`, it overlays fields that
//! are never live at the same time: the owner slots of an allocated frame
//! hold the free-list links while the frame heads a free block, and
//! `NO_LINK` in both slots while it is inside one (DESIGN.md §7, "16-byte
//! frame table").

use crate::content::PageContent;
use std::fmt;

/// What an allocated frame is used for. Determines movability defaults and
/// which free list (zero / non-zero) should service it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrameKind {
    /// Anonymous user memory (the only kind Linux THP backs with huge
    /// pages). Movable by compaction unless part of a huge mapping.
    #[default]
    Anon,
    /// File-cache page. Reclaimable, movable.
    File,
    /// Pinned/unmovable allocation (kernel metadata, DMA, ...). The
    /// fragmentation antagonist uses these to pin scattered frames.
    Pinned,
}

/// Reverse-map entry: which process/virtual page an allocated frame backs.
///
/// `pid` is the owning process id; `vpn` the base-page virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerTag {
    /// Owning process id.
    pub pid: u32,
    /// Virtual page number (base-page granularity) this frame backs.
    pub vpn: u64,
}

pub(crate) const NO_LINK: u32 = u32::MAX;
/// Pid slot of an allocated frame without a reverse-map owner. It equals
/// [`NO_LINK`], so a free tail becomes an unowned allocated frame without
/// a write to its slots.
const NO_OWNER: u32 = NO_LINK;
const NOT_FREE_HEAD: u8 = u8::MAX;

/// Allocation state of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Allocated to a user (or reserved by the kernel during compaction).
    Allocated,
    /// Head of a free buddy block (order recorded in `free_order`).
    FreeHead,
    /// Interior frame of a free buddy block.
    FreeTail,
}

// Layout of `Frame::bits`.
const STATE_MASK: u8 = 0b11;
const KIND_SHIFT: u8 = 2;
const KIND_MASK: u8 = 0b11 << KIND_SHIFT;
const MOVABLE: u8 = 1 << 4;
/// Set only on a free head that is on a zero list.
const ZERO_LIST: u8 = 1 << 5;

const fn state_bits(state: FrameState) -> u8 {
    match state {
        FrameState::Allocated => 0,
        FrameState::FreeHead => 1,
        FrameState::FreeTail => 2,
    }
}

const fn kind_bits(kind: FrameKind) -> u8 {
    (match kind {
        FrameKind::Anon => 0,
        FrameKind::File => 1,
        FrameKind::Pinned => 2,
    }) << KIND_SHIFT
}

/// Metadata of one physical frame (16 bytes).
///
/// Instances live in [`crate::PhysMemory`]'s frame table and are accessed by
/// [`crate::PhysMemory::frame`] / [`crate::PhysMemory::frame_mut`].
/// Movability, kind and owner change only through
/// [`crate::PhysMemory::set_movable`], [`crate::PhysMemory::set_kind`] and
/// [`crate::PhysMemory::set_owner`], which refuse free frames (whose slots
/// hold free-list links) and keep the per-region counts compaction reads
/// in step.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct Frame {
    /// State (bits 0–1), kind (bits 2–3), movable (bit 4) and, on a free
    /// head, whether its block is on a zero list (bit 5).
    bits: u8,
    /// Order of the free block this frame heads; `NOT_FREE_HEAD` otherwise.
    pub(crate) free_order: u8,
    content_tag: u16,
    /// Owner pid while allocated (`NO_OWNER`: none), `prev` link while
    /// heading a free block, `NO_LINK` inside one.
    pid_or_prev: u32,
    /// Owner vpn while allocated (`NO_LINK` when unowned), `next` link while
    /// heading a free block, `NO_LINK` inside one.
    vpn_or_next: u64,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            bits: state_bits(FrameState::FreeTail) | kind_bits(FrameKind::Anon) | MOVABLE,
            free_order: NOT_FREE_HEAD,
            content_tag: PageContent::ZERO_TAG,
            pid_or_prev: NO_LINK,
            vpn_or_next: u64::from(NO_LINK),
        }
    }
}

impl Frame {
    pub(crate) fn state(&self) -> FrameState {
        match self.bits & STATE_MASK {
            0 => FrameState::Allocated,
            1 => FrameState::FreeHead,
            _ => FrameState::FreeTail,
        }
    }

    /// Whether the frame is currently free (head or interior of a free
    /// block).
    pub fn is_free(&self) -> bool {
        self.bits & STATE_MASK != state_bits(FrameState::Allocated)
    }

    /// The frame's allocation kind.
    pub fn kind(&self) -> FrameKind {
        match (self.bits & KIND_MASK) >> KIND_SHIFT {
            0 => FrameKind::Anon,
            1 => FrameKind::File,
            _ => FrameKind::Pinned,
        }
    }

    /// Sets the allocation kind.
    pub(crate) fn set_kind(&mut self, kind: FrameKind) {
        self.bits = self.bits & !KIND_MASK | kind_bits(kind);
        if kind == FrameKind::Pinned {
            self.bits &= !MOVABLE;
        }
    }

    /// Reverse-map owner, if the frame is allocated and backs a user
    /// mapping. Always `None` on a free frame.
    pub fn owner(&self) -> Option<OwnerTag> {
        (self.state() == FrameState::Allocated && self.pid_or_prev != NO_OWNER)
            .then_some(OwnerTag { pid: self.pid_or_prev, vpn: self.vpn_or_next })
    }

    /// Sets (or clears) the reverse-map owner of an allocated frame. Pid
    /// `u32::MAX` is reserved (it encodes "no owner").
    pub(crate) fn set_owner(&mut self, owner: Option<OwnerTag>) {
        debug_assert_eq!(self.state(), FrameState::Allocated, "owner of a free frame");
        match owner {
            Some(o) => {
                debug_assert!(o.pid != NO_OWNER, "pid u32::MAX is reserved");
                self.pid_or_prev = o.pid;
                self.vpn_or_next = o.vpn;
            }
            None => self.clear_slots(),
        }
    }

    /// Whether compaction may migrate this frame.
    pub fn is_movable(&self) -> bool {
        self.bits & MOVABLE != 0 && self.kind() != FrameKind::Pinned
    }

    /// Marks the frame movable/unmovable (e.g. huge-mapped frames are
    /// unmovable as units; pinned frames are never movable).
    pub(crate) fn set_movable(&mut self, movable: bool) {
        if movable {
            self.bits |= MOVABLE;
        } else {
            self.bits &= !MOVABLE;
        }
    }

    /// The frame's content summary.
    pub fn content(&self) -> PageContent {
        PageContent::from_tag(self.content_tag)
    }

    /// Overwrites the content summary (e.g. the workload wrote data, or the
    /// pre-zeroing daemon cleared the page).
    pub fn set_content(&mut self, content: PageContent) {
        self.content_tag = content.to_tag();
    }

    /// Whether the frame's content is all-zero.
    pub fn is_zeroed(&self) -> bool {
        self.content_tag == PageContent::ZERO_TAG
    }

    // ---- buddy-allocator state transitions ------------------------------

    fn clear_slots(&mut self) {
        self.pid_or_prev = NO_LINK;
        self.vpn_or_next = u64::from(NO_LINK);
    }

    /// Whether both slots hold `NO_LINK` (a free tail; an unowned
    /// allocated frame).
    pub(crate) fn slots_clear(&self) -> bool {
        self.pid_or_prev == NO_LINK && self.vpn_or_next == u64::from(NO_LINK)
    }

    /// Turns an allocated frame into a free tail: an anonymous, movable,
    /// unowned frame inside a free block. Keeps the content.
    pub(crate) fn make_free_tail(&mut self) {
        self.bits = state_bits(FrameState::FreeTail) | kind_bits(FrameKind::Anon) | MOVABLE;
        self.free_order = NOT_FREE_HEAD;
        self.clear_slots();
    }

    /// Turns a free tail into the head of a free block of `order` at the
    /// front of its list (zero list iff `zero_list`), followed by `next`.
    pub(crate) fn make_free_head(&mut self, order: u8, zero_list: bool, next: u32) {
        debug_assert_eq!(self.state(), FrameState::FreeTail);
        self.bits = self.bits & !(STATE_MASK | ZERO_LIST)
            | state_bits(FrameState::FreeHead)
            | if zero_list { ZERO_LIST } else { 0 };
        self.free_order = order;
        self.pid_or_prev = NO_LINK;
        self.vpn_or_next = u64::from(next);
    }

    /// Turns a free head, already unlinked from its list, back into a free
    /// tail.
    pub(crate) fn clear_free_head(&mut self) {
        self.bits = self.bits & !(STATE_MASK | ZERO_LIST) | state_bits(FrameState::FreeTail);
        self.free_order = NOT_FREE_HEAD;
        self.clear_slots();
    }

    /// Marks a free tail allocated. Its slots already read "no owner".
    pub(crate) fn mark_allocated(&mut self) {
        debug_assert!(self.state() == FrameState::FreeTail && self.slots_clear());
        self.bits = self.bits & !STATE_MASK | state_bits(FrameState::Allocated);
    }

    /// Whether this free head's block is on a zero list. False on every
    /// frame that is not a free head.
    pub(crate) fn on_zero_list(&self) -> bool {
        self.bits & ZERO_LIST != 0
    }

    /// Free-list `prev` link of a free head.
    pub(crate) fn prev(&self) -> u32 {
        self.pid_or_prev
    }

    /// Free-list `next` link of a free head.
    pub(crate) fn next(&self) -> u32 {
        self.vpn_or_next as u32
    }

    pub(crate) fn set_prev(&mut self, prev: u32) {
        debug_assert_eq!(self.state(), FrameState::FreeHead);
        self.pid_or_prev = prev;
    }

    pub(crate) fn set_next(&mut self, next: u32) {
        debug_assert_eq!(self.state(), FrameState::FreeHead);
        self.vpn_or_next = u64::from(next);
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.state() {
            FrameState::Allocated => "alloc",
            FrameState::FreeHead => "free-head",
            FrameState::FreeTail => "free",
        };
        write!(f, "[{state} {:?} {}]", self.kind(), self.content())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocated() -> Frame {
        let mut f = Frame::default();
        f.mark_allocated();
        f
    }

    #[test]
    fn default_frame_is_free_and_zeroed() {
        let f = Frame::default();
        assert!(f.is_free());
        assert!(f.is_zeroed());
        assert!(f.is_movable());
        assert_eq!(f.owner(), None);
        assert_eq!(f.kind(), FrameKind::Anon);
    }

    #[test]
    fn pinned_frames_are_unmovable() {
        let mut f = Frame::default();
        f.set_kind(FrameKind::Pinned);
        assert!(!f.is_movable());
        // and cannot be made movable again while pinned
        f.set_movable(true);
        assert!(!f.is_movable());
    }

    #[test]
    fn content_round_trip() {
        let mut f = Frame::default();
        f.set_content(PageContent::non_zero(17));
        assert!(!f.is_zeroed());
        assert_eq!(f.content(), PageContent::non_zero(17));
        f.set_content(PageContent::Zero);
        assert!(f.is_zeroed());
    }

    #[test]
    fn owner_tag_set_and_clear() {
        let mut f = allocated();
        assert_eq!(f.owner(), None);
        f.set_owner(Some(OwnerTag { pid: 3, vpn: 42 }));
        assert_eq!(f.owner(), Some(OwnerTag { pid: 3, vpn: 42 }));
        f.set_owner(None);
        assert!(f.owner().is_none());
    }

    #[test]
    fn free_head_links_never_read_as_an_owner() {
        let mut f = Frame::default();
        f.make_free_head(3, true, 17);
        f.set_prev(5);
        assert_eq!((f.prev(), f.next()), (5, 17));
        assert!(f.on_zero_list());
        assert_eq!(f.owner(), None);
        f.clear_free_head();
        assert!(f.slots_clear() && !f.on_zero_list());
    }

    #[test]
    fn kind_and_movability_share_a_byte_with_the_state() {
        let mut f = allocated();
        f.set_kind(FrameKind::File);
        f.set_movable(false);
        assert_eq!((f.kind(), f.is_movable(), f.is_free()), (FrameKind::File, false, false));
        f.make_free_tail();
        assert_eq!((f.kind(), f.is_movable(), f.is_free()), (FrameKind::Anon, true, true));
    }

    #[test]
    fn frame_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 16);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Frame::default()).is_empty());
    }
}
