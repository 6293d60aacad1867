//! Per-frame metadata: the simulator's `struct page` analogue.
//!
//! Each 4 KB physical frame carries its allocation state, a kind (anonymous,
//! file-backed, pinned), an optional reverse-map owner tag (process + virtual
//! page, used by compaction to update page tables when migrating), a
//! movability flag, and the page-content tag from [`crate::content`].

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
/// `Frame::owner_pid` value of a frame without a reverse-map owner.
const NO_OWNER: u32 = u32::MAX;
pub(crate) const NOT_FREE_HEAD: u8 = u8::MAX;

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

/// Metadata of one physical frame (32 bytes).
///
/// Instances live in [`crate::PhysMemory`]'s frame table and are accessed by
/// [`crate::PhysMemory::frame`] / [`crate::PhysMemory::frame_mut`].
/// Movability and kind change only through [`crate::PhysMemory::set_movable`]
/// and [`crate::PhysMemory::set_kind`], which keep the per-region counts
/// compaction reads in step.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct Frame {
    pub(crate) state: FrameState,
    /// Valid only when `state == FreeHead`.
    pub(crate) free_order: u8,
    /// Free-list linkage (valid only when `state == FreeHead`).
    pub(crate) prev: u32,
    pub(crate) next: u32,
    kind: FrameKind,
    /// Reverse-map owner, split so the frame packs into 32 bytes:
    /// `owner_pid == NO_OWNER` means none (and `owner_vpn` is then 0).
    owner_pid: u32,
    owner_vpn: u64,
    movable: bool,
    content_tag: u16,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            state: FrameState::FreeTail,
            free_order: NOT_FREE_HEAD,
            prev: NO_LINK,
            next: NO_LINK,
            kind: FrameKind::Anon,
            owner_pid: NO_OWNER,
            owner_vpn: 0,
            movable: true,
            content_tag: PageContent::ZERO_TAG,
        }
    }
}

impl Frame {
    /// Whether the frame is currently free (head or interior of a free
    /// block).
    pub fn is_free(&self) -> bool {
        matches!(self.state, FrameState::FreeHead | FrameState::FreeTail)
    }

    /// The frame's allocation kind.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Sets the allocation kind.
    pub(crate) fn set_kind(&mut self, kind: FrameKind) {
        self.kind = kind;
        if kind == FrameKind::Pinned {
            self.movable = false;
        }
    }

    /// Reverse-map owner, if the frame backs a user mapping.
    pub fn owner(&self) -> Option<OwnerTag> {
        (self.owner_pid != NO_OWNER).then_some(OwnerTag { pid: self.owner_pid, vpn: self.owner_vpn })
    }

    /// Sets (or clears) the reverse-map owner. Pid `u32::MAX` is reserved
    /// (it encodes "no owner").
    pub fn set_owner(&mut self, owner: Option<OwnerTag>) {
        match owner {
            Some(o) => {
                debug_assert!(o.pid != NO_OWNER, "pid u32::MAX is reserved");
                self.owner_pid = o.pid;
                self.owner_vpn = o.vpn;
            }
            None => {
                self.owner_pid = NO_OWNER;
                self.owner_vpn = 0;
            }
        }
    }

    /// Whether compaction may migrate this frame.
    pub fn is_movable(&self) -> bool {
        self.movable && self.kind != FrameKind::Pinned
    }

    /// Marks the frame movable/unmovable (e.g. huge-mapped frames are
    /// unmovable as units; pinned frames are never movable).
    pub(crate) fn set_movable(&mut self, movable: bool) {
        self.movable = movable;
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

    pub(crate) fn reset_user_meta(&mut self) {
        self.kind = FrameKind::Anon;
        self.set_owner(None);
        self.movable = true;
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.state {
            FrameState::Allocated => "alloc",
            FrameState::FreeHead => "free-head",
            FrameState::FreeTail => "free",
        };
        write!(f, "[{state} {:?} {}]", self.kind, self.content())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut f = Frame::default();
        f.set_owner(Some(OwnerTag { pid: 3, vpn: 42 }));
        assert_eq!(f.owner().unwrap().vpn, 42);
        f.set_owner(None);
        assert!(f.owner().is_none());
    }

    #[test]
    fn frame_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 32);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Frame::default()).is_empty());
    }
}
