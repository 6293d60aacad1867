//! Property tests for the mixed-granularity page table and address
//! space: random map/unmap/split/collapse/migrate/madvise/access/sample
//! sequences must keep the mapping bijective per VA, RSS accounting exact,
//! translations consistent, and every entry's frame, accessed, dirty and
//! zero-COW bits equal to an independent model's.
//!
//! Inputs come from the in-tree `SplitMix64` with fixed seeds, one
//! generator per case, so every run checks the same cases.

use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::Pfn;
use hawkeye_vm::{
    AccessSample, AddressSpace, BaseEntry, HugeEntry, Hvpn, PageSize, Translation, VmaKind, Vpn,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 96;

/// The generator for case `case` of the property seeded `seed`.
fn case_rng(seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

const REGIONS: u64 = 8;
const PAGES: u64 = REGIONS * 512;
/// The shared zero frame behind zero-COW mappings.
const ZERO_PFN: Pfn = Pfn(7);

#[derive(Debug, Clone)]
enum Op {
    MapBase { slot: u64 },
    MapZeroCow { slot: u64 },
    MapHuge { region: u64 },
    UnmapBase { slot: u64 },
    UnmapHuge { region: u64 },
    SplitHuge { region: u64 },
    Collapse { region: u64 },
    Migrate { slot: u64 },
    Madvise { start: u64, len: u64 },
    Access { slot: u64, write: bool },
    Sample { region: u64 },
    ClearAccess { region: u64 },
}

fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.below(12) {
        0 => Op::MapBase { slot: rng.below(PAGES) },
        1 => Op::MapZeroCow { slot: rng.below(PAGES) },
        2 => Op::MapHuge { region: rng.below(REGIONS) },
        3 => Op::UnmapBase { slot: rng.below(PAGES) },
        4 => Op::UnmapHuge { region: rng.below(REGIONS) },
        5 => Op::SplitHuge { region: rng.below(REGIONS) },
        6 => Op::Collapse { region: rng.below(REGIONS) },
        7 => Op::Migrate { slot: rng.below(PAGES) },
        8 => Op::Madvise { start: rng.below(PAGES), len: range(rng, 1, 600) },
        9 => Op::Access { slot: rng.below(PAGES), write: rng.below(2) == 1 },
        10 => Op::Sample { region: rng.below(REGIONS) },
        _ => Op::ClearAccess { region: rng.below(REGIONS) },
    }
}

impl Op {
    /// The regions the op may change.
    fn regions(&self) -> Range<u64> {
        match *self {
            Op::MapBase { slot }
            | Op::MapZeroCow { slot }
            | Op::UnmapBase { slot }
            | Op::Migrate { slot }
            | Op::Access { slot, .. } => slot / 512..slot / 512 + 1,
            Op::MapHuge { region }
            | Op::UnmapHuge { region }
            | Op::SplitHuge { region }
            | Op::Collapse { region }
            | Op::Sample { region }
            | Op::ClearAccess { region } => region..region + 1,
            Op::Madvise { start, len } => start / 512..(start + len).min(PAGES).div_ceil(512),
        }
    }
}

/// A reference model of the page table: base entries by page, huge
/// entries by region, each with its own accessed and dirty bits.
#[derive(Default)]
struct Model {
    base: BTreeMap<u64, BaseEntry>,
    huge: BTreeMap<u64, HugeEntry>,
}

impl Model {
    fn rss(&self) -> u64 {
        self.base.len() as u64 + 512 * self.huge.len() as u64
    }

    fn pages(region: u64) -> Range<u64> {
        region * 512..(region + 1) * 512
    }

    /// Whether `slot` is mapped, by a base or a huge entry.
    fn is_mapped(&self, slot: u64) -> bool {
        self.base.contains_key(&slot) || self.huge.contains_key(&(slot / 512))
    }

    /// Splits the huge mapping of `region`: 512 base entries over the same
    /// frames, each inheriting the huge entry's bits.
    fn split(&mut self, region: u64) {
        let h = self.huge.remove(&region).expect("split of an unmapped region");
        for (i, v) in Self::pages(region).enumerate() {
            let pfn = Pfn(h.pfn.0 + i as u64);
            self.base.insert(
                v,
                BaseEntry { pfn, accessed: h.accessed, dirty: h.dirty, zero_cow: false },
            );
        }
    }

    /// The translation `access` must return for `slot`, with the bits it
    /// must set. A write to a zero-COW page faults and changes nothing.
    fn access(&mut self, slot: u64, write: bool) -> Option<Translation> {
        if let Some(h) = self.huge.get_mut(&(slot / 512)) {
            h.accessed = true;
            h.dirty |= write;
            return Some(Translation {
                pfn: Pfn(h.pfn.0 + slot % 512),
                size: PageSize::Huge,
                zero_cow: false,
            });
        }
        let b = self.base.get_mut(&slot)?;
        if write && b.zero_cow {
            return None;
        }
        b.accessed = true;
        b.dirty |= write;
        Some(Translation { pfn: b.pfn, size: PageSize::Base, zero_cow: b.zero_cow })
    }

    /// The sample `sample_and_clear_access` must return for `region`;
    /// clears the region's accessed bits.
    fn sample(&mut self, region: u64) -> AccessSample {
        if let Some(h) = self.huge.get_mut(&region) {
            let accessed = if h.accessed { 512 } else { 0 };
            h.accessed = false;
            return AccessSample { mapped: 512, accessed, is_huge: true };
        }
        let mut s = AccessSample::default();
        for e in self.base.range_mut(Self::pages(region)).map(|(_, e)| e) {
            s.mapped += 1;
            s.accessed += e.accessed as u32;
            e.accessed = false;
        }
        s
    }
}

/// Every base and huge entry of `regions` in `space` equals the model's.
fn assert_entries_match(
    space: &AddressSpace,
    model: &Model,
    regions: Range<u64>,
    when: &dyn std::fmt::Debug,
) {
    let pt = space.page_table();
    for region in regions {
        let got = pt.huge_entry(Hvpn(region)).copied();
        assert_eq!(got, model.huge.get(&region).copied(), "huge entry {region} after {when:?}");
        for v in Model::pages(region) {
            let got = pt.base_entry(Vpn(v));
            assert_eq!(got, model.base.get(&v).copied(), "base entry {v} after {when:?}");
        }
    }
}

#[test]
fn random_ops_agree_with_reference_model() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9A6E, case);
        let ops: Vec<Op> = (0..range(&mut rng, 1, 200)).map(|_| random_op(&mut rng)).collect();
        let mut space = AddressSpace::new();
        space.mmap(Vpn(0), PAGES, VmaKind::Anon).unwrap();
        let mut model = Model::default();
        let mut next_pfn = 1_000_000u64; // fake frames, distinct per mapping

        for op in ops {
            match op {
                Op::MapBase { slot } | Op::MapZeroCow { slot } => {
                    let zero_cow = matches!(op, Op::MapZeroCow { .. });
                    let pfn = if zero_cow { ZERO_PFN } else { Pfn(next_pfn) };
                    let res = if zero_cow {
                        space.map_zero_cow(Vpn(slot), pfn)
                    } else {
                        space.map_base(Vpn(slot), pfn)
                    };
                    let occupied = model.is_mapped(slot);
                    assert_eq!(res.is_ok(), !occupied, "{op:?}: {res:?}");
                    if !occupied {
                        let e = BaseEntry { pfn, accessed: false, dirty: false, zero_cow };
                        model.base.insert(slot, e);
                        next_pfn += 1;
                    }
                }
                Op::MapHuge { region } => {
                    let occupied = model.huge.contains_key(&region)
                        || model.base.range(Model::pages(region)).next().is_some();
                    let pfn = Pfn((next_pfn * 512) & !511);
                    let res = space.map_huge(Hvpn(region), pfn);
                    assert_eq!(res.is_ok(), !occupied, "map_huge {region}: {res:?}");
                    if !occupied {
                        model.huge.insert(region, HugeEntry { pfn, accessed: false, dirty: false });
                        next_pfn += 1;
                    }
                }
                Op::UnmapBase { slot } => {
                    assert_eq!(space.unmap_base(Vpn(slot)).ok(), model.base.remove(&slot));
                }
                Op::UnmapHuge { region } => {
                    assert_eq!(space.unmap_huge(Hvpn(region)).ok(), model.huge.remove(&region));
                }
                Op::SplitHuge { region } => {
                    let huge = model.huge.get(&region).copied();
                    assert_eq!(space.split_huge(Hvpn(region)).ok(), huge);
                    if huge.is_some() {
                        model.split(region);
                    }
                }
                Op::Collapse { region } => {
                    let mut taken = Vec::new();
                    space
                        .page_table_mut()
                        .take_base_entries_in_region(Hvpn(region), |v, e| taken.push((v.0, e)));
                    let pages = Model::pages(region);
                    let expect: Vec<(u64, BaseEntry)> =
                        model.base.range(pages.clone()).map(|(v, e)| (*v, *e)).collect();
                    model.base.retain(|v, _| !pages.contains(v));
                    assert_eq!(taken, expect, "collapse {region}");
                }
                Op::Migrate { slot } => {
                    // Moves a mapped page's frame; a zero-COW or unmapped
                    // page stays as it is.
                    let src = model.base.get(&slot).map_or(Pfn(0), |e| e.pfn);
                    let dst = Pfn(next_pfn);
                    let moved = space.page_table_mut().migrate_base(Vpn(slot), src, dst);
                    let e = model.base.get_mut(&slot).filter(|e| !e.zero_cow);
                    assert_eq!(moved, e.is_some(), "migrate {slot}");
                    if let Some(e) = e {
                        e.pfn = dst;
                        next_pfn += 1;
                    }
                }
                Op::Madvise { start, len } => {
                    let end = (start + len).min(PAGES);
                    let freed = space.madvise_dontneed(Vpn(start), end.saturating_sub(start));
                    // Huge mappings wholly inside the range go; the ones it
                    // straddles are split, and the covered pages released.
                    let mut expect = 0;
                    for region in start / 512..end.div_ceil(512) {
                        if model.huge.contains_key(&region) {
                            if start <= region * 512 && (region + 1) * 512 <= end {
                                model.huge.remove(&region);
                                expect += 512;
                            } else {
                                model.split(region);
                            }
                        }
                    }
                    for v in start..end {
                        if model.base.remove(&v).is_some() {
                            expect += 1;
                        }
                    }
                    let got: u64 = freed.iter().map(|f| f.size.base_pages()).sum();
                    assert_eq!(got, expect, "madvise released wrong amount");
                }
                Op::Access { slot, write } => {
                    assert_eq!(space.access(Vpn(slot), write), model.access(slot, write), "{op:?}");
                }
                Op::Sample { region } => {
                    assert_eq!(space.sample_and_clear_access(Hvpn(region)), model.sample(region));
                }
                Op::ClearAccess { region } => {
                    space.clear_region_access(Hvpn(region));
                    model.sample(region);
                }
            }
            // RSS and the entries the op may have changed match the model.
            assert_eq!(space.rss_pages(), model.rss());
            assert_entries_match(&space, &model, op.regions(), &op);
        }
        // An op that changed a region outside its own shows here.
        assert_entries_match(&space, &model, 0..REGIONS, &format!("case {case}"));
    }
}

#[test]
fn sampling_counts_match_recent_accesses() {
    for case in 0..CASES {
        let mut rng = case_rng(0x5A3B, case);
        let want = range(&mut rng, 0, 200) as usize;
        let mut touched = BTreeSet::new();
        while touched.len() < want {
            touched.insert(rng.below(512));
        }
        let mut space = AddressSpace::new();
        space.mmap(Vpn(0), 512, VmaKind::Anon).unwrap();
        for v in 0..512u64 {
            space.map_base(Vpn(v), Pfn(v)).unwrap();
        }
        // Clear boot-time access bits.
        let _ = space.sample_and_clear_access(Hvpn(0));
        for v in &touched {
            space.access(Vpn(*v), false).unwrap();
        }
        let s = space.sample_and_clear_access(Hvpn(0));
        assert_eq!(s.mapped, 512);
        assert_eq!(s.accessed as usize, touched.len());
        // And the bits were cleared by the sample.
        let s2 = space.sample_and_clear_access(Hvpn(0));
        assert_eq!(s2.accessed, 0);
    }
}
