//! Mixed-granularity page table with accessed/dirty bits.
//!
//! One table maps base pages (4 KB) and huge regions (2 MB) side by side;
//! a huge mapping covers its whole region and shadows any base mapping
//! (the two are kept mutually exclusive per region).
//!
//! Accessed bits are set on every simulated access and sampled-and-cleared
//! by the policies — this is the substrate for Ingens' utilization
//! tracking and HawkEye's access-coverage sampling (§3.3).
//!
//! # Layout
//!
//! Entries are stored per 2 MB region in a `RegionChunk`: one optional
//! huge entry plus 512 frame slots and mapped/accessed/dirty/zero-COW
//! bitmaps. Intra-region operations are O(1) array/bit work and region
//! coverage sampling is a popcount, instead of per-page tree lookups.
//!
//! Chunks live in an **arena** (`Vec<RegionChunk>` with a free list)
//! behind a dense `Hvpn`-indexed slot map, so the translation hot path
//! does one bounds-checked array load instead of a tree descent. Virtual
//! address space in the simulator is footprint-bounded (workloads map at
//! low VAs), so the dense index stays small — a few KiB per GiB of VA.
//! A region has a chunk iff it has at least one mapping; VA-ordered
//! iteration scans the index, so region scans remain deterministic.
//!
//! # Translation cache
//!
//! The table embeds a small set-associative software translation cache of
//! **huge regions** on the [`PageTable::access`] hot path, with an LRU
//! clock per entry: one region entry satisfies all 512 constituent pages,
//! so a promoted working set skips the `index → arena → chunk` lookup.
//! Base pages are not cached — for them the dense index *is* the fast
//! path, and a probe plus fill per access would cost more than it saves —
//! and while the table has no huge mapping the probe is skipped outright.
//! A cached entry may satisfy an access without touching the chunk only
//! when doing so is invisible: the entry's accessed bit is known set, and
//! (for writes) its dirty bit too, so the access would not change any
//! table state. Every mutation (map/unmap/split/collapse/remap) and every
//! accessed-bit clear bumps a generation counter that invalidates the
//! whole cache in O(1) — the invalidation contract callers would
//! otherwise have to wire through each path by hand. Disable with
//! [`PageTable::set_translation_cache_enabled`] to differentially test
//! that cached and uncached execution are bit-identical.

use crate::error::MapError;
use crate::types::{Hvpn, PageSize, Vpn};
use hawkeye_mem::Pfn;

/// Pages per huge region.
const REGION_PAGES: usize = 512;
/// Bitmap words per region.
const WORDS: usize = REGION_PAGES / 64;
/// Translation-cache geometry: `TC_SETS` sets of `TC_WAYS` ways, indexed
/// by the low bits of the region number. 512 entries cover 1 GiB of huge
/// mappings.
const TC_SETS: usize = 128;
/// Ways per translation-cache set (victims chosen by LRU clock).
const TC_WAYS: usize = 4;

/// A 4 KB page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseEntry {
    /// Backing frame.
    pub pfn: Pfn,
    /// Hardware accessed bit (set on access, cleared by sampling).
    pub accessed: bool,
    /// Hardware dirty bit.
    pub dirty: bool,
    /// This entry maps the canonical zero page copy-on-write: reads share
    /// the zero frame; the first write must fault to allocate a private
    /// frame. Set by bloat recovery's zero-page de-duplication.
    pub zero_cow: bool,
}

/// A 2 MB page-table entry (`pfn` is huge-aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeEntry {
    /// Backing frame of the first base page (huge-aligned).
    pub pfn: Pfn,
    /// Hardware accessed bit.
    pub accessed: bool,
    /// Hardware dirty bit.
    pub dirty: bool,
}

/// Result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Frame backing the *specific base page* queried (for huge mappings,
    /// the region frame plus the page's offset).
    pub pfn: Pfn,
    /// Granularity of the mapping that translated the address.
    pub size: PageSize,
    /// Whether the mapping is a zero-page COW entry.
    pub zero_cow: bool,
}

/// One access-coverage sample of a huge region (see §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessSample {
    /// Base pages currently mapped in the region (0-512); 512 if mapped
    /// huge.
    pub mapped: u32,
    /// Base pages whose accessed bit was set (for huge mappings: 512 if
    /// the single entry was accessed, else 0).
    pub accessed: u32,
    /// Whether the region is mapped by a huge page.
    pub is_huge: bool,
}

/// Per-region storage: an optional huge entry, or up to 512 base entries
/// as parallel frame slots + bitmaps. ~4.5 KB, arena-allocated.
#[derive(Debug, Clone)]
struct RegionChunk {
    huge: Option<HugeEntry>,
    mapped: [u64; WORDS],
    accessed: [u64; WORDS],
    dirty: [u64; WORDS],
    zero_cow: [u64; WORDS],
    mapped_count: u32,
    pfns: [Pfn; REGION_PAGES],
}

impl RegionChunk {
    fn new() -> Self {
        RegionChunk {
            huge: None,
            mapped: [0; WORDS],
            accessed: [0; WORDS],
            dirty: [0; WORDS],
            zero_cow: [0; WORDS],
            mapped_count: 0,
            pfns: [Pfn(0); REGION_PAGES],
        }
    }

    /// Returns a recycled chunk to its pristine state (`pfns` may keep
    /// stale values: they are only read under a set `mapped` bit).
    fn reset(&mut self) {
        self.huge = None;
        self.mapped = [0; WORDS];
        self.accessed = [0; WORDS];
        self.dirty = [0; WORDS];
        self.zero_cow = [0; WORDS];
        self.mapped_count = 0;
    }

    #[inline]
    fn bit(map: &[u64; WORDS], i: usize) -> bool {
        map[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn set(map: &mut [u64; WORDS], i: usize, v: bool) {
        let mask = 1u64 << (i % 64);
        if v {
            map[i / 64] |= mask;
        } else {
            map[i / 64] &= !mask;
        }
    }

    fn base_entry(&self, i: usize) -> Option<BaseEntry> {
        if !Self::bit(&self.mapped, i) {
            return None;
        }
        Some(BaseEntry {
            pfn: self.pfns[i],
            accessed: Self::bit(&self.accessed, i),
            dirty: Self::bit(&self.dirty, i),
            zero_cow: Self::bit(&self.zero_cow, i),
        })
    }

    /// First mapped page offset, if any.
    fn first_mapped(&self) -> Option<usize> {
        for (w, word) in self.mapped.iter().enumerate() {
            if *word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.huge.is_none() && self.mapped_count == 0
    }
}

/// One translation-cache entry: a huge region. Valid iff `epoch` matches
/// the table's current generation and `hvpn` matches the lookup. `stamp`
/// is the LRU clock value of the entry's last use; the lowest stamp in a
/// set is the eviction victim.
#[derive(Debug, Clone, Copy)]
struct TcEntry {
    hvpn: u64,
    /// The region's first frame.
    pfn: Pfn,
    /// The huge entry's dirty bit at insertion time (its accessed bit is
    /// always set — insertion happens right after an access).
    dirty: bool,
    epoch: u64,
    stamp: u64,
}

const TC_INVALID: TcEntry = TcEntry { hvpn: 0, pfn: Pfn(0), dirty: false, epoch: 0, stamp: 0 };

/// Mixed 4 KB / 2 MB page table.
///
/// # Examples
///
/// ```
/// use hawkeye_vm::{PageTable, Vpn, Hvpn, PageSize};
/// use hawkeye_mem::Pfn;
///
/// let mut pt = PageTable::new();
/// pt.map_base(Vpn(0), Pfn(10), false)?;
/// pt.map_huge(Hvpn(1), Pfn(512))?;
/// assert_eq!(pt.translate(Vpn(0)).unwrap().size, PageSize::Base);
/// let t = pt.translate(Vpn(512 + 7)).unwrap();
/// assert_eq!(t.size, PageSize::Huge);
/// assert_eq!(t.pfn, Pfn(512 + 7));
/// # Ok::<(), hawkeye_vm::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Chunk arena; slots are recycled through `free`.
    arena: Vec<RegionChunk>,
    /// Recycled arena slots.
    free: Vec<u32>,
    /// Dense `Hvpn -> arena slot + 1` map (0 = no chunk), grown on demand.
    index: Vec<u32>,
    base_total: u64,
    huge_total: u64,
    /// Translation generation; bumped on any mutation or accessed-bit
    /// clear, invalidating every cache slot at once.
    epoch: u64,
    cache_enabled: bool,
    cache: Vec<TcEntry>,
    /// LRU clock for the translation cache (monotonic per table).
    tc_clock: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            arena: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
            base_total: 0,
            huge_total: 0,
            epoch: 1,
            cache_enabled: true,
            cache: vec![TC_INVALID; TC_SETS * TC_WAYS],
            tc_clock: 0,
        }
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the embedded translation cache. Execution must
    /// be bit-identical either way; the switch exists for differential
    /// testing and debugging.
    pub fn set_translation_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Whether the translation cache is consulted on the access path.
    pub fn translation_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    #[inline]
    fn invalidate_cache(&mut self) {
        self.epoch += 1;
    }

    /// Arena chunk for `hvpn`, if the region has any mapping.
    #[inline]
    fn chunk(&self, hvpn: Hvpn) -> Option<&RegionChunk> {
        match self.index.get(hvpn.0 as usize) {
            Some(&slot) if slot != 0 => Some(&self.arena[slot as usize - 1]),
            _ => None,
        }
    }

    /// Mutable arena chunk for `hvpn`, if the region has any mapping.
    #[inline]
    fn chunk_mut(&mut self, hvpn: Hvpn) -> Option<&mut RegionChunk> {
        match self.index.get(hvpn.0 as usize) {
            Some(&slot) if slot != 0 => Some(&mut self.arena[slot as usize - 1]),
            _ => None,
        }
    }

    /// Chunk for `hvpn`, allocating (or recycling) an arena slot if the
    /// region has none yet.
    fn chunk_or_insert(&mut self, hvpn: Hvpn) -> &mut RegionChunk {
        let h = hvpn.0 as usize;
        if h >= self.index.len() {
            self.index.resize(h + 1, 0);
        }
        if self.index[h] == 0 {
            let slot = match self.free.pop() {
                Some(s) => {
                    self.arena[s as usize].reset();
                    s
                }
                None => {
                    self.arena.push(RegionChunk::new());
                    (self.arena.len() - 1) as u32
                }
            };
            self.index[h] = slot + 1;
        }
        &mut self.arena[self.index[h] as usize - 1]
    }

    /// Releases `hvpn`'s chunk back to the arena if it became empty.
    fn release_if_empty(&mut self, hvpn: Hvpn) {
        let h = hvpn.0 as usize;
        if let Some(&slot) = self.index.get(h) {
            if slot != 0 && self.arena[slot as usize - 1].is_empty() {
                self.index[h] = 0;
                self.free.push(slot - 1);
            }
        }
    }

    /// Live `(Hvpn, chunk)` pairs in VA order.
    #[inline]
    fn regions(&self) -> impl Iterator<Item = (Hvpn, &RegionChunk)> {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .map(|(h, &slot)| (Hvpn(h as u64), &self.arena[slot as usize - 1]))
    }

    /// Number of base-page mappings.
    pub fn base_count(&self) -> u64 {
        self.base_total
    }

    /// Number of huge mappings.
    pub fn huge_count(&self) -> u64 {
        self.huge_total
    }

    /// Resident set size in base pages (base mappings + 512 per huge
    /// mapping). Zero-COW mappings count, as Linux's RSS does for mapped
    /// zero pages backed by real huge frames; callers wanting "unique"
    /// memory subtract shared zero pages themselves.
    pub fn rss_pages(&self) -> u64 {
        self.base_count() + 512 * self.huge_count()
    }

    /// Translates a base page, without touching accessed bits.
    pub fn translate(&self, vpn: Vpn) -> Option<Translation> {
        let c = self.chunk(vpn.hvpn())?;
        if let Some(h) = &c.huge {
            return Some(Translation {
                pfn: Pfn(h.pfn.0 + vpn.huge_offset()),
                size: PageSize::Huge,
                zero_cow: false,
            });
        }
        let i = vpn.huge_offset() as usize;
        if !RegionChunk::bit(&c.mapped, i) {
            return None;
        }
        Some(Translation {
            pfn: c.pfns[i],
            size: PageSize::Base,
            zero_cow: RegionChunk::bit(&c.zero_cow, i),
        })
    }

    /// Probes `hvpn`'s translation-cache set; on hit, refreshes the
    /// entry's LRU stamp and returns its (region pfn, dirty).
    #[inline]
    fn tc_lookup(&mut self, hvpn: u64) -> Option<(Pfn, bool)> {
        let set = hvpn as usize % TC_SETS * TC_WAYS;
        let epoch = self.epoch;
        self.tc_clock += 1;
        let stamp = self.tc_clock;
        for e in &mut self.cache[set..set + TC_WAYS] {
            if e.epoch == epoch && e.hvpn == hvpn {
                e.stamp = stamp;
                return Some((e.pfn, e.dirty));
            }
        }
        None
    }

    /// Fills `hvpn`'s set, evicting the stale or least-recently-used way.
    #[inline]
    fn tc_fill(&mut self, hvpn: u64, pfn: Pfn, dirty: bool) {
        let set = hvpn as usize % TC_SETS * TC_WAYS;
        let epoch = self.epoch;
        self.tc_clock += 1;
        let stamp = self.tc_clock;
        let ways = &mut self.cache[set..set + TC_WAYS];
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.epoch != epoch { 0 } else { e.stamp + 1 })
            .map(|(i, _)| i)
            .unwrap_or(0);
        ways[victim] = TcEntry { hvpn, pfn, dirty, epoch, stamp };
    }

    /// Translates and records an access (sets accessed, and dirty on
    /// writes). Returns `None` when unmapped — the caller takes a fault.
    ///
    /// A *write* to a zero-COW entry also returns `None`: the caller must
    /// take a COW fault and replace the mapping.
    #[inline]
    pub fn access(&mut self, vpn: Vpn, write: bool) -> Option<Translation> {
        // Only huge regions are cached, so a table without one skips the
        // probe. A hit may bypass the chunk only when the access would be
        // a no-op on table state: accessed already set (invariant of
        // cached entries) and dirty already set for writes.
        if self.cache_enabled && self.huge_total != 0 {
            if let Some((pfn, dirty)) = self.tc_lookup(vpn.hvpn().0) {
                if !write || dirty {
                    return Some(Translation {
                        pfn: Pfn(pfn.0 + vpn.huge_offset()),
                        size: PageSize::Huge,
                        zero_cow: false,
                    });
                }
            }
        }
        self.access_slow(vpn, write)
    }

    fn access_slow(&mut self, vpn: Vpn, write: bool) -> Option<Translation> {
        let cache_enabled = self.cache_enabled;
        let c = self.chunk_mut(vpn.hvpn())?;
        if let Some(h) = &mut c.huge {
            h.accessed = true;
            h.dirty |= write;
            let (pfn, dirty) = (h.pfn, h.dirty);
            if cache_enabled {
                self.tc_fill(vpn.hvpn().0, pfn, dirty);
            }
            return Some(Translation {
                pfn: Pfn(pfn.0 + vpn.huge_offset()),
                size: PageSize::Huge,
                zero_cow: false,
            });
        }
        let i = vpn.huge_offset() as usize;
        if !RegionChunk::bit(&c.mapped, i) {
            return None;
        }
        let zero_cow = RegionChunk::bit(&c.zero_cow, i);
        if write && zero_cow {
            return None;
        }
        RegionChunk::set(&mut c.accessed, i, true);
        if write {
            RegionChunk::set(&mut c.dirty, i, true);
        }
        Some(Translation { pfn: c.pfns[i], size: PageSize::Base, zero_cow })
    }

    /// Looks up the base entry for `vpn`, if any.
    pub fn base_entry(&self, vpn: Vpn) -> Option<BaseEntry> {
        self.chunk(vpn.hvpn())?.base_entry(vpn.huge_offset() as usize)
    }

    /// Looks up the huge entry for `hvpn`, if any.
    pub fn huge_entry(&self, hvpn: Hvpn) -> Option<&HugeEntry> {
        self.chunk(hvpn)?.huge.as_ref()
    }

    /// Maps a base page.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if the page is mapped (by a base or
    /// huge entry).
    pub fn map_base(&mut self, vpn: Vpn, pfn: Pfn, zero_cow: bool) -> Result<(), MapError> {
        let c = self.chunk_or_insert(vpn.hvpn());
        let i = vpn.huge_offset() as usize;
        if c.huge.is_some() || RegionChunk::bit(&c.mapped, i) {
            // Roll back a chunk this call created.
            self.release_if_empty(vpn.hvpn());
            return Err(MapError::AlreadyMapped { vpn });
        }
        RegionChunk::set(&mut c.mapped, i, true);
        RegionChunk::set(&mut c.accessed, i, false);
        RegionChunk::set(&mut c.dirty, i, false);
        RegionChunk::set(&mut c.zero_cow, i, zero_cow);
        c.pfns[i] = pfn;
        c.mapped_count += 1;
        self.base_total += 1;
        self.invalidate_cache();
        Ok(())
    }

    /// Maps a huge region.
    ///
    /// # Errors
    ///
    /// [`MapError::HugeAlreadyMapped`] if a huge mapping exists;
    /// [`MapError::AlreadyMapped`] if any base page in the region is
    /// mapped (the caller must collapse/unmap those first).
    pub fn map_huge(&mut self, hvpn: Hvpn, pfn: Pfn) -> Result<(), MapError> {
        if let Some(c) = self.chunk(hvpn) {
            if c.huge.is_some() {
                return Err(MapError::HugeAlreadyMapped { hvpn });
            }
            if let Some(i) = c.first_mapped() {
                return Err(MapError::AlreadyMapped { vpn: hvpn.vpn_at(i as u64) });
            }
        }
        let c = self.chunk_or_insert(hvpn);
        c.huge = Some(HugeEntry { pfn, accessed: false, dirty: false });
        self.huge_total += 1;
        self.invalidate_cache();
        Ok(())
    }

    /// Removes a base mapping, returning its entry.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no base entry exists for `vpn`.
    pub fn unmap_base(&mut self, vpn: Vpn) -> Result<BaseEntry, MapError> {
        let hvpn = vpn.hvpn();
        let c = self.chunk_mut(hvpn).ok_or(MapError::NotMapped { vpn })?;
        let i = vpn.huge_offset() as usize;
        let e = c.base_entry(i).ok_or(MapError::NotMapped { vpn })?;
        RegionChunk::set(&mut c.mapped, i, false);
        RegionChunk::set(&mut c.accessed, i, false);
        RegionChunk::set(&mut c.dirty, i, false);
        RegionChunk::set(&mut c.zero_cow, i, false);
        c.mapped_count -= 1;
        self.release_if_empty(hvpn);
        self.base_total -= 1;
        self.invalidate_cache();
        Ok(e)
    }

    /// Removes a huge mapping, returning its entry.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no huge entry exists for `hvpn`.
    pub fn unmap_huge(&mut self, hvpn: Hvpn) -> Result<HugeEntry, MapError> {
        let c = self.chunk_mut(hvpn).ok_or(MapError::NotMapped { vpn: hvpn.base_vpn() })?;
        let e = c.huge.take().ok_or(MapError::NotMapped { vpn: hvpn.base_vpn() })?;
        self.release_if_empty(hvpn);
        self.huge_total -= 1;
        self.invalidate_cache();
        Ok(e)
    }

    /// Splits a huge mapping into 512 base mappings over the same frames
    /// (demotion). Accessed/dirty bits are inherited by every base entry,
    /// as hardware cannot tell which constituent pages were touched.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if the region has no huge mapping.
    pub fn split_huge(&mut self, hvpn: Hvpn) -> Result<HugeEntry, MapError> {
        let c = self.chunk_mut(hvpn).ok_or(MapError::NotMapped { vpn: hvpn.base_vpn() })?;
        let entry = c.huge.take().ok_or(MapError::NotMapped { vpn: hvpn.base_vpn() })?;
        c.mapped = [u64::MAX; WORDS];
        c.accessed = if entry.accessed { [u64::MAX; WORDS] } else { [0; WORDS] };
        c.dirty = if entry.dirty { [u64::MAX; WORDS] } else { [0; WORDS] };
        c.zero_cow = [0; WORDS];
        c.mapped_count = REGION_PAGES as u32;
        for (i, slot) in c.pfns.iter_mut().enumerate() {
            *slot = Pfn(entry.pfn.0 + i as u64);
        }
        self.huge_total -= 1;
        self.base_total += REGION_PAGES as u64;
        self.invalidate_cache();
        Ok(entry)
    }

    /// Removes every base entry inside a huge region, feeding each to `f`
    /// in VA order (promotion collapse: the caller copies the pages into
    /// a huge frame and then maps it with [`PageTable::map_huge`]).
    pub fn take_base_entries_in_region(
        &mut self,
        hvpn: Hvpn,
        mut f: impl FnMut(Vpn, BaseEntry),
    ) {
        let Some(c) = self.chunk_mut(hvpn) else { return };
        let count = c.mapped_count;
        let mut remaining = count;
        let mut i = 0;
        while remaining > 0 && i < REGION_PAGES {
            if let Some(e) = c.base_entry(i) {
                remaining -= 1;
                f(hvpn.vpn_at(i as u64), e);
            }
            i += 1;
        }
        c.mapped = [0; WORDS];
        c.accessed = [0; WORDS];
        c.dirty = [0; WORDS];
        c.zero_cow = [0; WORDS];
        c.mapped_count = 0;
        self.base_total -= count as u64;
        self.release_if_empty(hvpn);
        self.invalidate_cache();
    }

    /// Removes every base entry with `start <= vpn < end`, feeding each
    /// to `f` in VA order (range unmap support; only regions intersecting
    /// the range are visited, and nothing is allocated).
    pub fn take_base_entries_in_range(
        &mut self,
        start: Vpn,
        end: Vpn,
        mut f: impl FnMut(Vpn, BaseEntry),
    ) {
        if end.0 <= start.0 {
            return;
        }
        let hstart = start.hvpn().0;
        let hend = Vpn(end.0 - 1).hvpn().0;
        let mut removed_any = false;
        for h in hstart..=hend {
            let hvpn = Hvpn(h);
            let Some(c) = self.chunk_mut(hvpn) else { continue };
            if c.huge.is_some() {
                continue;
            }
            let lo = start.0.saturating_sub(hvpn.base_vpn().0).min(REGION_PAGES as u64) as usize;
            let hi = (end.0 - hvpn.base_vpn().0).min(REGION_PAGES as u64) as usize;
            let mut removed = 0u64;
            for i in lo..hi {
                let Some(e) = c.base_entry(i) else { continue };
                RegionChunk::set(&mut c.mapped, i, false);
                RegionChunk::set(&mut c.accessed, i, false);
                RegionChunk::set(&mut c.dirty, i, false);
                RegionChunk::set(&mut c.zero_cow, i, false);
                c.mapped_count -= 1;
                removed += 1;
                f(hvpn.vpn_at(i as u64), e);
            }
            self.base_total -= removed;
            removed_any |= removed > 0;
            self.release_if_empty(hvpn);
        }
        if removed_any {
            self.invalidate_cache();
        }
    }

    /// Number of base pages mapped in a region (512 for huge mappings) —
    /// Ingens' *utilization* metric.
    pub fn region_mapped_count(&self, hvpn: Hvpn) -> u32 {
        match self.chunk(hvpn) {
            None => 0,
            Some(c) if c.huge.is_some() => 512,
            Some(c) => c.mapped_count,
        }
    }

    /// Samples a region's accessed bits and clears them — one window of
    /// HawkEye's access-coverage measurement. Coverage is a popcount over
    /// the region's accessed bitmap.
    pub fn sample_and_clear_access(&mut self, hvpn: Hvpn) -> AccessSample {
        let Some(c) = self.chunk_mut(hvpn) else { return AccessSample::default() };
        let s = if let Some(h) = &mut c.huge {
            let accessed = if h.accessed { 512 } else { 0 };
            h.accessed = false;
            AccessSample { mapped: 512, accessed, is_huge: true }
        } else {
            let accessed: u32 = c.accessed.iter().map(|w| w.count_ones()).sum();
            c.accessed = [0; WORDS];
            AccessSample { mapped: c.mapped_count, accessed, is_huge: false }
        };
        // Cached entries assume their accessed bit is still set.
        self.invalidate_cache();
        s
    }

    /// Clears a region's accessed bits without computing the sample (the
    /// "arm" phase of two-phase sampling).
    pub fn clear_region_access(&mut self, hvpn: Hvpn) {
        let Some(c) = self.chunk_mut(hvpn) else { return };
        if let Some(h) = &mut c.huge {
            h.accessed = false;
        } else {
            c.accessed = [0; WORDS];
        }
        self.invalidate_cache();
    }

    /// Iterates all huge mappings in VA order.
    pub fn huge_mappings(&self) -> impl Iterator<Item = (Hvpn, &HugeEntry)> {
        self.regions().filter_map(|(h, c)| c.huge.as_ref().map(|e| (h, e)))
    }

    /// Iterates all base mappings in VA order.
    pub fn base_mappings(&self) -> impl Iterator<Item = (Vpn, BaseEntry)> + '_ {
        self.regions().flat_map(|(h, c)| {
            (0..REGION_PAGES).filter_map(move |i| c.base_entry(i).map(|e| (h.vpn_at(i as u64), e)))
        })
    }

    /// The base mappings of one region in VA order (per-region scans
    /// without walking the whole table).
    pub fn base_mappings_in_region(
        &self,
        hvpn: Hvpn,
    ) -> impl Iterator<Item = (Vpn, BaseEntry)> + '_ {
        self.chunk(hvpn)
            .into_iter()
            .flat_map(move |c| {
                (0..REGION_PAGES)
                    .filter_map(move |i| c.base_entry(i).map(|e| (hvpn.vpn_at(i as u64), e)))
            })
    }

    /// The VPNs of base mappings in `[start, end)`, in VA order (only
    /// regions intersecting the range are visited).
    pub fn base_vpns_in_range(&self, start: Vpn, end: Vpn) -> impl Iterator<Item = Vpn> + '_ {
        let hstart = start.hvpn().0;
        let hend = if end.0 <= start.0 { 0 } else { Vpn(end.0 - 1).hvpn().0 + 1 };
        (hstart..hend)
            .filter_map(|h| self.chunk(Hvpn(h)).map(|c| (Hvpn(h), c)))
            .flat_map(move |(h, c)| {
                (0..REGION_PAGES).filter_map(move |i| {
                    let vpn = h.vpn_at(i as u64);
                    (vpn >= start && vpn < end && RegionChunk::bit(&c.mapped, i)).then_some(vpn)
                })
            })
    }

    /// The distinct huge regions that currently have any mapping, in VA
    /// order (the scan list used by promotion policies).
    pub fn mapped_regions(&self) -> impl Iterator<Item = Hvpn> + '_ {
        self.regions().map(|(h, _)| h)
    }

    /// The regions mapped only by base pages, in VA order — promotion
    /// candidates, without the allocation-and-filter dance over
    /// [`PageTable::mapped_regions`].
    pub fn base_only_regions(&self) -> impl Iterator<Item = Hvpn> + '_ {
        self.regions().filter(|(_, c)| c.huge.is_none()).map(|(h, _)| h)
    }

    /// Moves the base mapping at `vpn` from frame `src` to `dst` (page
    /// migration), checking and rewriting the entry in one lookup.
    /// Returns false, changing nothing, unless `vpn` has a base entry on
    /// `src` that is not zero-COW.
    pub fn migrate_base(&mut self, vpn: Vpn, src: Pfn, dst: Pfn) -> bool {
        let Some(c) = self.chunk_mut(vpn.hvpn()) else { return false };
        let i = vpn.huge_offset() as usize;
        if !RegionChunk::bit(&c.mapped, i) || c.pfns[i] != src || RegionChunk::bit(&c.zero_cow, i) {
            return false;
        }
        debug_assert!(c.huge.is_none(), "base entry inside a huge region");
        c.pfns[i] = dst;
        self.invalidate_cache();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects [`PageTable::take_base_entries_in_region`]'s callback
    /// stream (the old `Vec` return, for assertions).
    fn take_region(pt: &mut PageTable, hvpn: Hvpn) -> Vec<(Vpn, BaseEntry)> {
        let mut out = Vec::new();
        pt.take_base_entries_in_region(hvpn, |v, e| out.push((v, e)));
        out
    }

    #[test]
    fn base_and_huge_coexist_in_different_regions() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(0), Pfn(1), false).unwrap();
        pt.map_huge(Hvpn(1), Pfn(512)).unwrap();
        assert_eq!(pt.base_count(), 1);
        assert_eq!(pt.huge_count(), 1);
        assert_eq!(pt.rss_pages(), 513);
    }

    #[test]
    fn huge_mapping_shadows_whole_region() {
        let mut pt = PageTable::new();
        pt.map_huge(Hvpn(0), Pfn(0)).unwrap();
        for i in [0u64, 100, 511] {
            let t = pt.translate(Vpn(i)).unwrap();
            assert_eq!(t.size, PageSize::Huge);
            assert_eq!(t.pfn, Pfn(i));
        }
        assert!(pt.translate(Vpn(512)).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(5), Pfn(1), false).unwrap();
        assert!(matches!(pt.map_base(Vpn(5), Pfn(2), false), Err(MapError::AlreadyMapped { .. })));
        // Huge map over existing base entry rejected.
        assert!(matches!(pt.map_huge(Hvpn(0), Pfn(0)), Err(MapError::AlreadyMapped { .. })));
        pt.map_huge(Hvpn(1), Pfn(512)).unwrap();
        assert!(matches!(pt.map_huge(Hvpn(1), Pfn(1024)), Err(MapError::HugeAlreadyMapped { .. })));
        // Base map under a huge mapping rejected.
        assert!(matches!(
            pt.map_base(Vpn(513), Pfn(9), false),
            Err(MapError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn access_sets_and_sampling_clears_bits() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            pt.map_base(Vpn(i), Pfn(100 + i), false).unwrap();
        }
        pt.access(Vpn(0), false).unwrap();
        pt.access(Vpn(1), true).unwrap();
        let s = pt.sample_and_clear_access(Hvpn(0));
        assert_eq!(s.mapped, 10);
        assert_eq!(s.accessed, 2);
        assert!(!s.is_huge);
        // Bits were cleared.
        let s2 = pt.sample_and_clear_access(Hvpn(0));
        assert_eq!(s2.accessed, 0);
        // Dirty bit persists.
        assert!(pt.base_entry(Vpn(1)).unwrap().dirty);
        assert!(!pt.base_entry(Vpn(0)).unwrap().dirty);
    }

    #[test]
    fn huge_access_sampling() {
        let mut pt = PageTable::new();
        pt.map_huge(Hvpn(2), Pfn(1024)).unwrap();
        assert_eq!(pt.sample_and_clear_access(Hvpn(2)).accessed, 0);
        pt.access(Vpn(2 * 512 + 3), false).unwrap();
        let s = pt.sample_and_clear_access(Hvpn(2));
        assert_eq!((s.mapped, s.accessed), (512, 512));
        assert!(s.is_huge);
    }

    #[test]
    fn zero_cow_write_faults() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(7), Pfn(0), true).unwrap();
        // Reads succeed.
        let t = pt.access(Vpn(7), false).unwrap();
        assert!(t.zero_cow);
        // Writes demand a COW fault — including via a fresh cached entry.
        assert!(pt.access(Vpn(7), true).is_none());
        // Kernel resolves the fault by remapping.
        pt.unmap_base(Vpn(7)).unwrap();
        pt.map_base(Vpn(7), Pfn(55), false).unwrap();
        assert!(pt.access(Vpn(7), true).is_some());
    }

    #[test]
    fn split_huge_inherits_bits() {
        let mut pt = PageTable::new();
        pt.map_huge(Hvpn(0), Pfn(0)).unwrap();
        pt.access(Vpn(5), true).unwrap();
        let e = pt.split_huge(Hvpn(0)).unwrap();
        assert_eq!(e.pfn, Pfn(0));
        assert_eq!(pt.base_count(), 512);
        assert_eq!(pt.huge_count(), 0);
        let b = pt.base_entry(Vpn(100)).unwrap();
        assert_eq!(b.pfn, Pfn(100));
        assert!(b.accessed && b.dirty);
    }

    #[test]
    fn collapse_takes_all_entries() {
        let mut pt = PageTable::new();
        for i in 0..50 {
            pt.map_base(Vpn(i * 2), Pfn(i), false).unwrap();
        }
        let taken = take_region(&mut pt, Hvpn(0));
        assert_eq!(taken.len(), 50);
        assert_eq!(pt.base_count(), 0);
        pt.map_huge(Hvpn(0), Pfn(512)).unwrap();
        assert_eq!(pt.region_mapped_count(Hvpn(0)), 512);
    }

    #[test]
    fn mapped_regions_sorted_and_deduped() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(1030), Pfn(1), false).unwrap();
        pt.map_base(Vpn(1031), Pfn(2), false).unwrap();
        pt.map_huge(Hvpn(0), Pfn(0)).unwrap();
        pt.map_base(Vpn(5000), Pfn(3), false).unwrap();
        assert_eq!(pt.mapped_regions().collect::<Vec<_>>(), vec![Hvpn(0), Hvpn(2), Hvpn(9)]);
        assert_eq!(pt.base_only_regions().collect::<Vec<_>>(), vec![Hvpn(2), Hvpn(9)]);
    }

    #[test]
    fn remap_base_moves_frame() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(3), Pfn(9), false).unwrap();
        pt.map_base(Vpn(4), Pfn(0), true).unwrap();
        assert!(!pt.migrate_base(Vpn(3), Pfn(8), Pfn(90)), "wrong source");
        assert!(!pt.migrate_base(Vpn(4), Pfn(0), Pfn(91)), "zero-COW entry");
        assert!(!pt.migrate_base(Vpn(5), Pfn(9), Pfn(92)), "unmapped");
        assert!(!pt.migrate_base(Vpn(9000), Pfn(9), Pfn(93)), "no region");
        assert_eq!(pt.translate(Vpn(3)).unwrap().pfn, Pfn(9));
        assert!(pt.migrate_base(Vpn(3), Pfn(9), Pfn(90)));
        assert_eq!(pt.translate(Vpn(3)).unwrap().pfn, Pfn(90));
    }

    #[test]
    fn region_mapped_count_partial() {
        let mut pt = PageTable::new();
        for i in 0..461 {
            pt.map_base(Vpn(i), Pfn(i), false).unwrap();
        }
        // 461/512 = 90%: Ingens' default promotion threshold.
        assert_eq!(pt.region_mapped_count(Hvpn(0)), 461);
    }

    #[test]
    fn empty_chunks_are_dropped() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(5), Pfn(1), false).unwrap();
        pt.unmap_base(Vpn(5)).unwrap();
        assert_eq!(pt.mapped_regions().count(), 0);
        pt.map_huge(Hvpn(3), Pfn(512)).unwrap();
        pt.unmap_huge(Hvpn(3)).unwrap();
        assert_eq!(pt.mapped_regions().count(), 0);
        assert_eq!(pt.rss_pages(), 0);
    }

    #[test]
    fn arena_recycles_released_chunks() {
        let mut pt = PageTable::new();
        // Map and fully release a run of regions, twice: the second pass
        // must reuse the first pass's arena slots rather than grow.
        for round in 0..2 {
            for h in 0..8u64 {
                pt.map_huge(Hvpn(h), Pfn(h * 512)).unwrap();
            }
            assert_eq!(pt.huge_count(), 8, "round {round}");
            for h in 0..8u64 {
                pt.unmap_huge(Hvpn(h)).unwrap();
            }
            assert_eq!(pt.rss_pages(), 0, "round {round}");
        }
        assert!(pt.arena.len() <= 8, "arena grew past peak: {}", pt.arena.len());
        // Recycled chunks must come back pristine.
        pt.map_base(Vpn(3), Pfn(7), false).unwrap();
        assert_eq!(pt.region_mapped_count(Hvpn(0)), 1);
        assert!(pt.base_entry(Vpn(4)).is_none());
    }

    #[test]
    fn cache_hits_skip_nothing_observable() {
        // Same access sequence with the cache on and off must produce
        // identical translations and leave identical table state.
        let mut on = PageTable::new();
        let mut off = PageTable::new();
        off.set_translation_cache_enabled(false);
        for pt in [&mut on, &mut off] {
            pt.map_base(Vpn(1), Pfn(11), false).unwrap();
            pt.map_base(Vpn(2), Pfn(12), true).unwrap();
            pt.map_huge(Hvpn(1), Pfn(1024)).unwrap();
        }
        let seq: Vec<(u64, bool)> =
            vec![(1, false), (1, false), (1, true), (1, true), (2, false), (2, false), (600, true), (600, false), (3, false)];
        for (v, w) in seq {
            assert_eq!(on.access(Vpn(v), w), off.access(Vpn(v), w), "vpn {v} write {w}");
        }
        for v in [1u64, 2, 600] {
            assert_eq!(on.base_entry(Vpn(v)), off.base_entry(Vpn(v)));
        }
        assert_eq!(
            on.sample_and_clear_access(Hvpn(0)),
            off.sample_and_clear_access(Hvpn(0))
        );
    }

    #[test]
    fn cache_invalidated_by_mutations() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(9), Pfn(1), false).unwrap();
        pt.access(Vpn(9), true).unwrap(); // populates the cache
        pt.unmap_base(Vpn(9)).unwrap();
        assert!(pt.access(Vpn(9), true).is_none(), "stale cache entry survived unmap");
        pt.map_base(Vpn(9), Pfn(2), false).unwrap();
        assert_eq!(pt.access(Vpn(9), false).unwrap().pfn, Pfn(2));
        assert!(pt.migrate_base(Vpn(9), Pfn(2), Pfn(3)));
        assert_eq!(pt.access(Vpn(9), false).unwrap().pfn, Pfn(3));
    }

    #[test]
    fn cache_invalidated_by_sampling() {
        // After a sample clears accessed bits, a cached hit must not skip
        // re-setting them.
        let mut pt = PageTable::new();
        pt.map_base(Vpn(4), Pfn(1), false).unwrap();
        pt.access(Vpn(4), false).unwrap();
        assert_eq!(pt.sample_and_clear_access(Hvpn(0)).accessed, 1);
        pt.access(Vpn(4), false).unwrap();
        assert!(pt.base_entry(Vpn(4)).unwrap().accessed, "accessed bit lost to stale cache");
        pt.clear_region_access(Hvpn(0));
        pt.access(Vpn(4), false).unwrap();
        assert_eq!(pt.sample_and_clear_access(Hvpn(0)).accessed, 1);
    }

    #[test]
    fn cached_huge_region_entry_serves_sibling_pages() {
        // One access to a huge region caches a region-grained entry; a
        // different page of the same region must still set no bits twice
        // and translate with the right per-page frame.
        let mut pt = PageTable::new();
        pt.map_huge(Hvpn(4), Pfn(2048)).unwrap();
        pt.access(Vpn(4 * 512), true).unwrap();
        let t = pt.access(Vpn(4 * 512 + 99), false).unwrap();
        assert_eq!(t.pfn, Pfn(2048 + 99));
        assert_eq!(t.size, PageSize::Huge);
        // A write through the cached region entry (dirty already set).
        let t = pt.access(Vpn(4 * 512 + 7), true).unwrap();
        assert_eq!(t.pfn, Pfn(2048 + 7));
    }

    /// Live cached regions of `set`, sorted.
    fn cached_in_set(pt: &PageTable, set: usize) -> Vec<u64> {
        let mut v: Vec<u64> = pt.cache[set * TC_WAYS..(set + 1) * TC_WAYS]
            .iter()
            .filter(|e| e.epoch == pt.epoch)
            .map(|e| e.hvpn)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn cache_set_survives_conflict_churn() {
        // More conflicting regions than one direct-mapped slot could hold:
        // with TC_WAYS ways + LRU, a small working set of regions sharing
        // set 0 stays resident, and one more region evicts the LRU way
        // (correctness is unchanged either way; this pins the
        // set-associative shape).
        let mut pt = PageTable::new();
        let stride = TC_SETS as u64; // same set index every time
        let ways = TC_WAYS as u64;
        for k in 0..=ways {
            pt.map_huge(Hvpn(k * stride), Pfn(512 * (k + 1))).unwrap();
        }
        for _ in 0..4 {
            for k in 0..ways {
                let t = pt.access(Hvpn(k * stride).vpn_at(k), false).unwrap();
                assert_eq!((t.pfn, t.size), (Pfn(512 * (k + 1) + k), PageSize::Huge));
            }
        }
        let resident: Vec<u64> = (0..ways).map(|k| k * stride).collect();
        assert_eq!(cached_in_set(&pt, 0), resident);
        // Region 0 was used least recently: the extra region replaces it.
        let t = pt.access(Hvpn(ways * stride).base_vpn(), false).unwrap();
        assert_eq!(t.pfn, Pfn(512 * (ways + 1)));
        assert_eq!(cached_in_set(&pt, 0), (1..=ways).map(|k| k * stride).collect::<Vec<_>>());
    }

    #[test]
    fn base_pages_are_never_cached() {
        // Base accesses go to the chunk every time, with or without a
        // huge mapping elsewhere in the table.
        let mut pt = PageTable::new();
        pt.map_base(Vpn(3), Pfn(30), false).unwrap();
        pt.access(Vpn(3), true).unwrap();
        pt.access(Vpn(3), false).unwrap();
        assert!(pt.cache.iter().all(|e| e.epoch != pt.epoch), "base page cached");
        pt.map_huge(Hvpn(1), Pfn(512)).unwrap();
        pt.access(Vpn(3), false).unwrap();
        pt.access(Vpn(512 + 5), false).unwrap();
        assert_eq!(cached_in_set(&pt, 0), Vec::<u64>::new());
        assert_eq!(cached_in_set(&pt, 1), vec![1]);
    }

    #[test]
    fn base_vpns_in_range_spans_regions() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn(10), Pfn(1), false).unwrap();
        pt.map_base(Vpn(600), Pfn(2), false).unwrap();
        pt.map_base(Vpn(1200), Pfn(3), false).unwrap();
        assert_eq!(
            pt.base_vpns_in_range(Vpn(0), Vpn(1024)).collect::<Vec<_>>(),
            vec![Vpn(10), Vpn(600)]
        );
        assert_eq!(pt.base_vpns_in_range(Vpn(11), Vpn(601)).collect::<Vec<_>>(), vec![Vpn(600)]);
        assert_eq!(pt.base_vpns_in_range(Vpn(0), Vpn(0)).count(), 0);
    }

    #[test]
    fn take_base_entries_in_range_matches_unmap_loop() {
        let mut a = PageTable::new();
        let mut b = PageTable::new();
        for pt in [&mut a, &mut b] {
            for v in [10u64, 600, 601, 1200] {
                pt.map_base(Vpn(v), Pfn(v), false).unwrap();
            }
        }
        // Reference: collect then unmap one by one.
        let vpns: Vec<Vpn> = a.base_vpns_in_range(Vpn(11), Vpn(1201)).collect();
        let mut ref_freed = Vec::new();
        for vpn in vpns {
            ref_freed.push((vpn, a.unmap_base(vpn).unwrap()));
        }
        // Drain form.
        let mut freed = Vec::new();
        b.take_base_entries_in_range(Vpn(11), Vpn(1201), |v, e| freed.push((v, e)));
        assert_eq!(freed, ref_freed);
        assert_eq!(a.base_count(), b.base_count());
        assert_eq!(
            a.mapped_regions().collect::<Vec<_>>(),
            b.mapped_regions().collect::<Vec<_>>()
        );
    }
}
