//! Property tests for the mixed-granularity page table and address
//! space: random map/unmap/split/collapse/madvise sequences must keep the
//! mapping bijective per VA, RSS accounting exact, and translations
//! consistent.
//!
//! Inputs come from the in-tree `SplitMix64` with fixed seeds, one
//! generator per case, so every run checks the same cases.

use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::Pfn;
use hawkeye_vm::{AddressSpace, Hvpn, PageSize, VmaKind, Vpn};
use std::collections::{BTreeMap, BTreeSet};

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

#[derive(Debug, Clone)]
enum Op {
    MapBase { slot: u64 },
    MapHuge { region: u64 },
    UnmapBase { slot: u64 },
    SplitHuge { region: u64 },
    Madvise { start: u64, len: u64 },
    Access { slot: u64, write: bool },
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let pages = REGIONS * 512;
    match rng.below(6) {
        0 => Op::MapBase { slot: rng.below(pages) },
        1 => Op::MapHuge { region: rng.below(REGIONS) },
        2 => Op::UnmapBase { slot: rng.below(pages) },
        3 => Op::SplitHuge { region: rng.below(REGIONS) },
        4 => Op::Madvise { start: rng.below(pages), len: range(rng, 1, 600) },
        _ => Op::Access { slot: rng.below(pages), write: rng.below(2) == 1 },
    }
}

/// A reference model: which base pages are resident, via which granularity.
#[derive(Default)]
struct Model {
    /// vpn -> (pfn, huge?)
    mapped: BTreeMap<u64, (u64, bool)>,
}

impl Model {
    fn rss(&self) -> u64 {
        self.mapped.len() as u64
    }
}

#[test]
fn random_ops_agree_with_reference_model() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9A6E, case);
        let ops: Vec<Op> = (0..range(&mut rng, 1, 200)).map(|_| random_op(&mut rng)).collect();
        let mut space = AddressSpace::new();
        space.mmap(Vpn(0), REGIONS * 512, VmaKind::Anon).unwrap();
        let mut model = Model::default();
        let mut next_pfn = 1_000_000u64; // fake frames, distinct per mapping

        for op in ops {
            match op {
                Op::MapBase { slot } => {
                    let vpn = Vpn(slot);
                    let res = space.map_base(vpn, Pfn(next_pfn));
                    if model.mapped.contains_key(&slot)
                        || model.mapped.contains_key(&(slot / 512 * 512))
                            && model.mapped.get(&(slot / 512 * 512)).map(|m| m.1) == Some(true)
                    {
                        assert!(res.is_err(), "double map must fail at {vpn}");
                    } else if res.is_ok() {
                        model.mapped.insert(slot, (next_pfn, false));
                        next_pfn += 1;
                    }
                }
                Op::MapHuge { region } => {
                    let hvpn = Hvpn(region);
                    let base = region * 512;
                    let occupied = (base..base + 512).any(|v| model.mapped.contains_key(&v));
                    let res = space.map_huge(hvpn, Pfn((next_pfn * 512) & !511));
                    if occupied {
                        assert!(res.is_err(), "huge map over mappings must fail");
                    } else if res.is_ok() {
                        let hpfn = (next_pfn * 512) & !511;
                        for i in 0..512 {
                            model.mapped.insert(base + i, (hpfn + i, true));
                        }
                        next_pfn += 1;
                    }
                }
                Op::UnmapBase { slot } => {
                    let res = space.unmap_base(Vpn(slot));
                    match model.mapped.get(&slot) {
                        Some((_, false)) => {
                            assert!(res.is_ok());
                            model.mapped.remove(&slot);
                        }
                        _ => assert!(res.is_err(), "unmap of {slot} must fail"),
                    }
                }
                Op::SplitHuge { region } => {
                    let base = region * 512;
                    let is_huge = model.mapped.get(&base).map(|m| m.1) == Some(true);
                    let res = space.split_huge(Hvpn(region));
                    assert_eq!(res.is_ok(), is_huge);
                    if is_huge {
                        for i in 0..512 {
                            if let Some(e) = model.mapped.get_mut(&(base + i)) {
                                e.1 = false;
                            }
                        }
                    }
                }
                Op::Madvise { start, len } => {
                    let end = (start + len).min(REGIONS * 512);
                    let freed = space.madvise_dontneed(Vpn(start), end.saturating_sub(start));
                    // Count released base pages in the model.
                    let mut expect = 0;
                    for v in start..end {
                        if model.mapped.remove(&v).is_some() {
                            expect += 1;
                        }
                    }
                    let got: u64 =
                        freed.iter().map(|f| f.size.base_pages()).sum();
                    assert_eq!(got, expect, "madvise released wrong amount");
                    // Straddled huge mappings were split: sync the model's
                    // granularity flags (contents unchanged).
                    for v in (start / 512 * 512)..(end.div_ceil(512) * 512).min(REGIONS * 512) {
                        if let Some(e) = model.mapped.get_mut(&v) {
                            if space.page_table().huge_entry(Vpn(v).hvpn()).is_none() {
                                e.1 = false;
                            }
                        }
                    }
                }
                Op::Access { slot, write } => {
                    let t = space.access(Vpn(slot), write);
                    match model.mapped.get(&slot) {
                        Some((pfn, huge)) => {
                            let t = t.expect("mapped page must translate");
                            assert_eq!(t.pfn.0, *pfn);
                            assert_eq!(t.size == PageSize::Huge, *huge);
                        }
                        None => assert!(t.is_none(), "unmapped page translated"),
                    }
                }
            }
            // Global invariant: RSS matches the model exactly.
            assert_eq!(space.rss_pages(), model.rss());
        }
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
